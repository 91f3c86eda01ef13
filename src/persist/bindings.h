// Concrete durable-session bindings for the three synthesizers.
//
// DurableRun<Synth, Traits> owns a synthesizer plus a DurableSession whose
// hooks close over it: save/restore map to the synthesizer's
// SaveCheckpoint/LoadCheckpoint, observe feeds a round of per-user data,
// and release_record serializes the round's published output for the WAL.
// The worker pool is runtime configuration: it is captured at Open and
// re-attached after every restore (set_pool), so a run can recover onto a
// completely different shards x threads grid — keyed substreams make the
// replayed releases byte-identical regardless.
//
// Release record formats (one WAL frame per observed round):
//   cumulative:   "<t> S0 S1 ... ST"      released threshold counts
//   fixed-window, "<t> c0 ... c{A^k-1}"   synthetic histogram (A = 2 for
//   categorical:                          fixed-window), or
//                 "<t> -"                 before the first release (t < k)
// The two window kinds are one synthesizer at different alphabets and
// share one record body.

#ifndef LONGDP_PERSIST_BINDINGS_H_
#define LONGDP_PERSIST_BINDINGS_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "persist/session.h"
#include "util/status.h"

namespace longdp {
namespace util {
class ThreadPool;
}  // namespace util

namespace persist {

struct CumulativeTraits {
  using Synth = core::CumulativeSynthesizer;
  static constexpr const char* kKind = "cumulative";
  static constexpr int64_t kFormatVersion = Synth::kCheckpointVersion;
  static std::string ReleaseRecord(const Synth& synth);
};

struct FixedWindowTraits {
  using Synth = core::FixedWindowSynthesizer;
  static constexpr const char* kKind = "fixed-window";
  static constexpr int64_t kFormatVersion = Synth::kCheckpointVersion;
  static std::string ReleaseRecord(const Synth& synth);
};

struct CategoricalTraits {
  using Synth = core::CategoricalWindowSynthesizer;
  static constexpr const char* kKind = "categorical";
  static constexpr int64_t kFormatVersion = Synth::kCheckpointVersion;
  static std::string ReleaseRecord(const Synth& synth);
};

template <typename Traits>
class DurableRun {
 public:
  using Synth = typename Traits::Synth;

  /// Creates the synthesizer and opens its durable session (running
  /// recovery, including the restore-from-snapshot that replaces the
  /// fresh synthesizer). After Open, re-feed `session().replay_remaining()`
  /// rounds of input before new data.
  static Result<std::unique_ptr<DurableRun>> Open(
      const DurableSession::Options& dopts,
      const typename Synth::Options& sopts) {
    LONGDP_ASSIGN_OR_RETURN(auto synth, Synth::Create(sopts));
    auto run = std::unique_ptr<DurableRun>(new DurableRun());
    run->pool_ = sopts.pool;
    run->synth_ = std::move(synth);

    SynthesizerHooks hooks;
    hooks.kind = Traits::kKind;
    hooks.format_version = Traits::kFormatVersion;
    hooks.seed = sopts.seed;
    DurableRun* self = run.get();
    hooks.save = [self](std::ostream& out) {
      return self->synth_->SaveCheckpoint(out);
    };
    hooks.restore = [self](std::istream& in) -> Status {
      auto restored = Synth::LoadCheckpoint(in);
      if (!restored.ok()) return restored.status();
      self->synth_ = std::move(restored).value();
      self->synth_->set_pool(self->pool_);
      return Status::OK();
    };
    hooks.observe = [self](const std::vector<uint8_t>& data) {
      return self->synth_->ObserveRound(data);
    };
    hooks.round = [self]() { return self->synth_->t(); };
    hooks.release_record = [self]() {
      return Traits::ReleaseRecord(*self->synth_);
    };
    LONGDP_ASSIGN_OR_RETURN(run->session_,
                            DurableSession::Open(dopts, std::move(hooks)));
    return run;
  }

  /// One durable round: observe + WAL verify/append + maybe snapshot.
  Status ObserveRound(const std::vector<uint8_t>& data) {
    return session_->ObserveRound(data);
  }

  Synth& synth() { return *synth_; }
  const Synth& synth() const { return *synth_; }
  DurableSession& session() { return *session_; }
  const DurableSession& session() const { return *session_; }

 private:
  DurableRun() = default;

  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<Synth> synth_;
  std::unique_ptr<DurableSession> session_;
};

using DurableCumulative = DurableRun<CumulativeTraits>;
using DurableFixedWindow = DurableRun<FixedWindowTraits>;
using DurableCategorical = DurableRun<CategoricalTraits>;

}  // namespace persist
}  // namespace longdp

#endif  // LONGDP_PERSIST_BINDINGS_H_
