#include <sstream>

#include "pob/mech/barter.h"

namespace pob {

std::optional<std::string> StrictBarter::check_tick(Tick /*tick*/,
                                                    std::span<const Transfer> transfers,
                                                    const SwarmState& /*state*/) {
  // A client->client transfer u->v must be matched (with multiplicity) by a
  // v->u transfer in the same tick: every unordered pair nets to zero. The
  // lowest unbalanced (lo, hi) pair is reported.
  for (const Transfer& tr : transfers) {
    if (tr.from != kServer && tr.to == kServer) {
      return "client " + std::to_string(tr.from) + " uploads to the server";
    }
  }
  std::optional<std::uint64_t> lowest;
  for (const auto& [key, net] : tick_net_.tally(transfers)) {
    if (net != 0 && (!lowest || key < *lowest)) lowest = key;
  }
  if (!lowest) return std::nullopt;
  std::ostringstream os;
  os << "unreciprocated exchange between clients " << (*lowest >> 32) << " and "
     << (*lowest & 0xffffffffULL);
  return os.str();
}

}  // namespace pob
