#include "dse/config.hpp"

namespace csfma::dse {

std::string DseConfig::validate() const {
  // The block range mirrors CsGeometry::validate (8..62 keeps the PCS
  // adder inside one CsWord); the FCS model shares it for uniformity.
  if (block < 8 || block > 62) return "field \"block\" must be in 8..62";
  if (group < 2 || group > 63) return "field \"group\" must be in 2..63";
  if (unit == UnitKind::Pcs && block % group != 0)
    return "field \"group\" must divide \"block\" for unit pcs";
  if (round_width < 0 || round_width > 256)
    return "field \"rwidth\" must be in 0..256 (0 = one block)";
  if (depth < 1 || depth > 64) return "field \"depth\" must be in 1..64";
  if (ops < 1 || ops > 65536) return "field \"ops\" must be in 1..65536";
  return "";
}

}  // namespace csfma::dse
