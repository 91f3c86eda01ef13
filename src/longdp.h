// Umbrella header for the longdp library: continual release of
// differentially private synthetic data from longitudinal data collections
// (Bun, Gaboardi, Neunhoeffer & Zhang, PACMMOD/PODS 2024).
//
// Typical usage (see examples/quickstart.cc for a complete program):
//
//   longdp::core::FixedWindowSynthesizer::Options opt;
//   opt.horizon = 12; opt.window_k = 3; opt.rho = 0.005;
//   opt.seed = seed;  // every noise draw is keyed off this one root seed
//   auto synth = longdp::core::FixedWindowSynthesizer::Create(opt).value();
//   for (each month) synth->ObserveRound(bits_for_month);
//   auto poverty = synth->DebiasedAnswer(*longdp::query::MakeAtLeastOnes(3, 1));

#ifndef LONGDP_LONGDP_H_
#define LONGDP_LONGDP_H_

#include "archive/exec.h"
#include "archive/format.h"
#include "archive/reader.h"
#include "archive/writer.h"
#include "core/categorical_synthesizer.h"
#include "core/cumulative_synthesizer.h"
#include "core/fixed_window_synthesizer.h"
#include "core/recompute_baseline.h"
#include "core/release_analyzer.h"
#include "core/release_log.h"
#include "core/synthetic_cohort.h"
#include "core/theory.h"
#include "data/generators.h"
#include "data/longitudinal_dataset.h"
#include "data/round_view.h"
#include "data/sipp_csv.h"
#include "data/sipp_preprocess.h"
#include "data/sipp_simulator.h"
#include "dp/accountant.h"
#include "dp/discrete_gaussian.h"
#include "dp/mechanisms.h"
#include "query/cumulative_query.h"
#include "query/debias.h"
#include "local/randomized_response.h"
#include "query/spells.h"
#include "query/window_query.h"
#include "stream/budget_split.h"
#include "stream/counter_bank.h"
#include "stream/counter_factory.h"
#include "stream/honaker_counter.h"
#include "stream/matrix_counter.h"
#include "stream/naive_counters.h"
#include "stream/stream_counter.h"
#include "stream/tree_counter.h"
#include "util/bits.h"
#include "util/csv.h"
#include "util/mathutil.h"
#include "util/status.h"
#include "util/substream.h"
#include "util/thread_pool.h"

#endif  // LONGDP_LONGDP_H_
