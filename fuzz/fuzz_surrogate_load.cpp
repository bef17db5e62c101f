// Fuzz target: the CATSURR2 binary surrogate-table loader over raw
// bytes. cat_serve preloads whatever *.surrogate.bin it finds, so every
// field of a record is attacker-controlled. Oracle: any byte sequence
// either parses into a queryable table or throws cat::Error — any other
// exception, crash, or sanitizer report is a finding.

#include <cstddef>
#include <cstdint>

#include "core/error.hpp"
#include "scenario/surrogate.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using cat::scenario::SurrogateTable;
  try {
    const SurrogateTable t = SurrogateTable::load_memory({data, size});
    // Parse accepted the record: it must now honor the full query
    // contract. Corners and center are inside the domain by definition,
    // so these must not throw at all.
    const auto& d = t.domain();
    (void)t.query(d.velocity_min_mps, d.altitude_min_m);
    (void)t.query(d.velocity_max_mps, d.altitude_max_m);
    (void)t.query(0.5 * (d.velocity_min_mps + d.velocity_max_mps),
                  0.5 * (d.altitude_min_m + d.altitude_max_m));
    for (std::size_t ch = 0; ch < SurrogateTable::kNChannels; ++ch) {
      (void)t.max_bound(ch);
      (void)t.mean_bound(ch);
    }
  } catch (const cat::Error&) {
    // The only contracted failure mode for untrusted bytes.
  }
  return 0;
}
