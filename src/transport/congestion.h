// DCTCP-style per-flow congestion control (Alizadeh et al., SIGCOMM'10),
// adapted to the slotted cell fabric.
//
// The window is counted in cells. Each delivered first copy is an ack;
// acks carrying the cell's ECN mark (set at enqueue when a VOQ crossed
// NetworkConfig::ecn_threshold_cells) feed the marked fraction. Once a
// window's worth of acks has accumulated, the smoothed mark fraction
// alpha is updated and the window reacts:
//
//   alpha <- (1 - g) * alpha + g * F        (F = marked / acked)
//   marked round:   cwnd <- cwnd * (1 - alpha / 2)
//   clean round:    cwnd <- cwnd + additive_increase
//
// All arithmetic is plain double — no RNG, no wall clock — so a run's
// windows are byte-identical on every run.
#pragma once

#include <cstdint>

namespace sorn {

struct CongestionConfig {
  std::uint64_t init_cwnd_cells = 8;
  std::uint64_t min_cwnd_cells = 1;
  std::uint64_t max_cwnd_cells = 256;
  // DCTCP's alpha EWMA gain g.
  double gain = 0.0625;
  // Cells added per clean (unmarked) round.
  double additive_increase = 1.0;
};

class CongestionControl {
 public:
  explicit CongestionControl(const CongestionConfig& config);

  // One first-copy delivery; ecn_marked echoes the cell's mark.
  void on_ack(bool ecn_marked);

  // The integer window the sender may keep in flight right now.
  std::uint64_t window_cells() const;
  double cwnd() const { return cwnd_; }
  double alpha() const { return alpha_; }
  // Completed congestion rounds (window updates so far).
  std::uint64_t rounds() const { return rounds_; }

 private:
  CongestionConfig config_;
  double cwnd_;
  double alpha_ = 0.0;
  std::uint64_t acked_in_round_ = 0;
  std::uint64_t marked_in_round_ = 0;
  // Acks that close the current round; latched from window_cells() at the
  // round start so a mid-round window change keeps the round length fixed.
  std::uint64_t round_acks_;
  std::uint64_t rounds_ = 0;
};

}  // namespace sorn
