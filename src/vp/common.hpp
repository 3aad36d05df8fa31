#pragma once
// Epilogue shared by the virtual-platform executors.

#include "engines/common.hpp"
#include "trace/trace.hpp"
#include "vp/vp.hpp"

namespace plsim {

/// Flush the blocks' activity summary into the trace session, merge their
/// results, and copy final values, waveform digest and the block-level
/// counters into `r`.
inline void finish_vp_result(VpResult& r, const Circuit& c,
                             const BlockRig& rig, trace::Session& tsn) {
  flush_block_activity(tsn, rig);
  RunResult merged = merge_results(c, rig, false);
  r.final_values = std::move(merged.final_values);
  r.wave_digest = merged.wave.digest();
  r.stats.wire_events = merged.stats.wire_events;
  r.stats.evaluations = merged.stats.evaluations;
  r.stats.dff_samples = merged.stats.dff_samples;
  r.stats.batches = merged.stats.batches;
  r.stats.save_bytes = merged.stats.save_bytes;
  r.stats.undo_entries = merged.stats.undo_entries;
}

}  // namespace plsim
