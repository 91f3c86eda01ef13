#include "core/fixed_window_synthesizer.h"

#include <utility>

#include "stream/state_io.h"

namespace longdp {
namespace core {

const CategoricalWindowSynthesizer::Codec FixedWindowSynthesizer::kCodec{
    "fixed-window", kCheckpointVersion, stream::state_io::Tag("fwin-end"),
    /*binary=*/true};

Result<std::unique_ptr<FixedWindowSynthesizer>> FixedWindowSynthesizer::Create(
    const Options& options) {
  LONGDP_ASSIGN_OR_RETURN(
      auto engine,
      CategoricalWindowSynthesizer::Create({options, /*alphabet=*/2}));
  return std::unique_ptr<FixedWindowSynthesizer>(
      new FixedWindowSynthesizer(std::move(engine)));
}

query::PaddingSpec FixedWindowSynthesizer::padding_spec() const {
  query::PaddingSpec spec;
  spec.synth_width = window_k();
  spec.npad = npad();
  spec.true_n = population() > 0 ? population() : 1;
  return spec;
}

Result<int64_t> FixedWindowSynthesizer::SyntheticCount(
    const query::WindowPredicate& pred) const {
  if (!has_release()) {
    return Status::FailedPrecondition(
        "no release yet: fewer than k rounds observed");
  }
  return query::CountOnHistogram(pred, SyntheticHistogram(), window_k());
}

Result<double> FixedWindowSynthesizer::BiasedAnswer(
    const query::WindowPredicate& pred) const {
  LONGDP_ASSIGN_OR_RETURN(int64_t count, SyntheticCount(pred));
  return query::BiasedFraction(count, cohort().num_records());
}

Result<double> FixedWindowSynthesizer::DebiasedAnswer(
    const query::WindowPredicate& pred) const {
  LONGDP_ASSIGN_OR_RETURN(int64_t count, SyntheticCount(pred));
  return query::DebiasedFraction(count, pred, padding_spec());
}

Status FixedWindowSynthesizer::SaveCheckpoint(std::ostream& out) const {
  return engine_->Save(out, kCodec);
}

Result<std::unique_ptr<FixedWindowSynthesizer>>
FixedWindowSynthesizer::LoadCheckpoint(std::istream& in) {
  LONGDP_ASSIGN_OR_RETURN(auto engine,
                          CategoricalWindowSynthesizer::Load(in, kCodec));
  return std::unique_ptr<FixedWindowSynthesizer>(
      new FixedWindowSynthesizer(std::move(engine)));
}

}  // namespace core
}  // namespace longdp
