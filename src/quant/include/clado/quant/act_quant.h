// Activation fake quantization (the paper quantizes activations to 8 bits
// in every experiment; the MPQ decision variables are weights only).
//
// ActFakeQuant is a Module inserted after activations / blocks by the model
// builders. It has three modes:
//   kBypass   — identity (fp32 baseline behaviour)
//   kObserve  — identity, but records calibration statistics
//   kQuantize — affine uniform fake quantization with the frozen range;
//               backward is the straight-through estimator with clipping
//               (gradients are zeroed outside the representable range).
//
// Calibration observes the exact running min/max of everything seen in
// kObserve mode; the frozen range is that min/max, widened to contain zero.
#pragma once

#include "clado/nn/module.h"

namespace clado::quant {

using clado::nn::Module;
using clado::nn::Tensor;

enum class ActQuantMode { kBypass, kObserve, kQuantize };

class ActFakeQuant : public Module {
 public:
  explicit ActFakeQuant(int bits = 8) : bits_(bits) {}

  Tensor forward(const Tensor& input) override;
  Tensor backward(const Tensor& grad_output) override;
  std::string type_name() const override { return "ActFakeQuant"; }
  std::unique_ptr<Module> clone() const override { return std::make_unique<ActFakeQuant>(*this); }

  void set_mode(ActQuantMode mode) { mode_ = mode; }
  ActQuantMode mode() const { return mode_; }

  /// Freezes scale/zero-point from the observed statistics. No-op when
  /// nothing was observed (layer then passes through even in kQuantize
  /// mode).
  void freeze_from_observed();

  /// Clears observed statistics and calibration (for re-calibration).
  void reset_observer();

  float scale() const { return scale_; }
  float zero_point() const { return zero_point_; }
  int bits() const { return bits_; }
  float lo() const { return lo_; }
  float hi() const { return hi_; }
  bool calibrated() const { return calibrated_; }

 private:
  void observe(const Tensor& input);

  int bits_;
  ActQuantMode mode_ = ActQuantMode::kBypass;

  bool observed_ = false;
  bool calibrated_ = false;
  float obs_min_ = 0.0F, obs_max_ = 0.0F;

  float scale_ = 1.0F, zero_point_ = 0.0F;
  float lo_ = 0.0F, hi_ = 0.0F;  // representable range after calibration

  Tensor input_;  // stashed for the STE clip mask
};

}  // namespace clado::quant
