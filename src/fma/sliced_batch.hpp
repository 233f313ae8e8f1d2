// Internal to src/fma: the batch walk behind CsFma's and ClassicFma's
// sliced fma_ieee_batch.
#pragma once

#include <cstddef>

#include "engine/slice.hpp"
#include "fma/fma_unit.hpp"

namespace csfma {

/// The run splitter of every sliced fma_ieee_batch: walks the batch in
/// stream order, hands each maximal run of up to slice::kLanes operations
/// that pass `sliceable` to `block(run, len, out, run_hooks)` (run_hooks
/// indexes the run's first operation), and takes every other operation —
/// every operation of a `tapped` unit, whose SignalTap traces one operation
/// at a time — through begin_op and `scalar`, as the base loop does.
template <class Sliceable, class Scalar, class Block>
void split_sliceable_runs(const OperandTriple* ops, std::size_t n,
                          PFloat* out, const FmaBatchHooks& hooks,
                          bool tapped, Sliceable&& sliceable,
                          Scalar&& scalar, Block&& block) {
  std::size_t i = 0;
  while (i < n) {
    if (tapped || !sliceable(ops[i])) {
      hooks.begin_op(i, ops[i]);
      out[i] = scalar(ops[i]);
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < n && j - i < (std::size_t)slice::kLanes && sliceable(ops[j]))
      ++j;
    FmaBatchHooks run = hooks;
    run.base_index += i;
    block(ops + i, (int)(j - i), out + i, run);
    i = j;
  }
}

}  // namespace csfma
