#include "sim/sync.hpp"

#include "util/check.hpp"

namespace gnnerator::sim {

TokenId SyncBoard::create(std::string debug_name) {
  const auto id = static_cast<TokenId>(signaled_.size());
  GNNERATOR_CHECK_MSG(id != kNoToken, "token id space exhausted");
  signaled_.push_back(false);
  names_.push_back(std::move(debug_name));
  return id;
}

void SyncBoard::signal(TokenId token) {
  GNNERATOR_CHECK_MSG(token < signaled_.size(), "signalling unknown token " << token);
  GNNERATOR_CHECK_MSG(!signaled_[token],
                      "token '" << names_[token] << "' signalled twice");
  signaled_[token] = true;
  ++num_signaled_;
}

bool SyncBoard::is_signaled(TokenId token) const {
  if (token == kNoToken) {
    return true;
  }
  GNNERATOR_CHECK_MSG(token < signaled_.size(), "querying unknown token " << token);
  return signaled_[token];
}

std::vector<std::string> SyncBoard::pending_names() const {
  std::vector<std::string> pending;
  for (std::size_t i = 0; i < signaled_.size(); ++i) {
    if (!signaled_[i]) {
      pending.push_back(names_[i]);
    }
  }
  return pending;
}

}  // namespace gnnerator::sim
