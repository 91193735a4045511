#include <sstream>
#include <stdexcept>

#include "pob/mech/barter.h"

namespace pob {

CreditLimited::CreditLimited(std::uint32_t credit_limit) : credit_limit_(credit_limit) {
  if (credit_limit_ < 1) {
    throw std::invalid_argument("CreditLimited: credit limit must be >= 1");
  }
}

std::optional<std::string> CreditLimited::check_tick(Tick /*tick*/,
                                                     std::span<const Transfer> transfers,
                                                     const SwarmState& /*state*/) {
  for (const Transfer& tr : transfers) {
    if (tr.from != kServer && tr.to == kServer) {
      return "client " + std::to_string(tr.from) + " uploads to the server";
    }
  }
  if (const auto excess = ledger_.first_excess(transfers, credit_limit_)) {
    std::ostringstream os;
    os << "credit limit " << credit_limit_ << " exceeded between clients " << excess->lo
       << " and " << excess->hi << " (end-of-tick net " << excess->end_net << ")";
    return os.str();
  }
  return std::nullopt;
}

void CreditLimited::commit_tick(Tick /*tick*/, std::span<const Transfer> transfers,
                                const SwarmState& /*state*/) {
  for (const Transfer& tr : transfers) {
    if (tr.from == kServer || tr.to == kServer) continue;
    ledger_.record(tr.from, tr.to);
  }
}

bool CreditLimited::may_upload(NodeId from, NodeId to) const {
  if (from == kServer) return true;
  if (to == kServer) return false;
  return ledger_.net(from, to) + 1 <= static_cast<std::int64_t>(credit_limit_);
}

}  // namespace pob
