#include "data/generators.h"

#include <cmath>

#include "util/thread_pool.h"

namespace longdp {
namespace data {

namespace {
Result<LongitudinalDataset> ConstantDataset(int64_t num_users, int64_t horizon,
                                            uint8_t value) {
  LONGDP_ASSIGN_OR_RETURN(auto ds,
                          LongitudinalDataset::Create(num_users, horizon));
  std::vector<uint8_t> round(static_cast<size_t>(num_users), value);
  for (int64_t t = 1; t <= horizon; ++t) {
    LONGDP_RETURN_NOT_OK(ds.AppendRound(round));
  }
  return ds;
}

Status ValidateMixture(const std::vector<MixtureComponent>& components) {
  if (components.empty()) {
    return Status::InvalidArgument("mixture needs at least one component");
  }
  double total_share = 0.0;
  for (const auto& c : components) {
    if (!std::isfinite(c.share) || c.share < 0.0) {
      return Status::InvalidArgument("mixture shares must be finite and >= 0");
    }
    LONGDP_RETURN_NOT_OK(ValidateMarkovParams(c.params));
    total_share += c.share;
  }
  if (!std::isfinite(total_share) || std::fabs(total_share - 1.0) > 1e-6) {
    return Status::InvalidArgument("mixture shares must sum to 1, got " +
                                   std::to_string(total_share));
  }
  return Status::OK();
}

// Assigns users to components by contiguous index blocks (deterministic;
// the rounding remainder goes to the last component).
std::vector<size_t> AssignComponents(
    int64_t num_users, const std::vector<MixtureComponent>& components) {
  std::vector<size_t> component_of(static_cast<size_t>(num_users),
                                   components.size() - 1);
  size_t next = 0;
  for (size_t c = 0; c + 1 < components.size(); ++c) {
    size_t count = static_cast<size_t>(
        std::llround(components[c].share * static_cast<double>(num_users)));
    for (size_t j = 0; j < count && next < component_of.size(); ++j) {
      component_of[next++] = c;
    }
  }
  return component_of;
}
}  // namespace

Result<LongitudinalDataset> ExtremeAllOnes(int64_t num_users,
                                           int64_t horizon) {
  return ConstantDataset(num_users, horizon, 1);
}

Result<LongitudinalDataset> ExtremeAllZeros(int64_t num_users,
                                            int64_t horizon) {
  return ConstantDataset(num_users, horizon, 0);
}

Result<LongitudinalDataset> BernoulliIid(int64_t num_users, int64_t horizon,
                                         double p, util::SubstreamRng* rng) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("Bernoulli p must be in [0,1]");
  }
  LONGDP_ASSIGN_OR_RETURN(auto ds,
                          LongitudinalDataset::Create(num_users, horizon));
  std::vector<uint8_t> round(static_cast<size_t>(num_users));
  for (int64_t t = 1; t <= horizon; ++t) {
    for (auto& b : round) b = rng->Bernoulli(p) ? 1 : 0;
    LONGDP_RETURN_NOT_OK(ds.AppendRound(round));
  }
  return ds;
}

Result<LongitudinalDataset> BernoulliIid(int64_t num_users, int64_t horizon,
                                         double p, uint64_t seed,
                                         util::ThreadPool* pool) {
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument("Bernoulli p must be in [0,1]");
  }
  LONGDP_ASSIGN_OR_RETURN(auto ds,
                          LongitudinalDataset::Create(num_users, horizon));
  const util::SubstreamRng root(seed, util::substream::kDataset);
  std::vector<uint8_t> round(static_cast<size_t>(num_users));
  for (int64_t t = 1; t <= horizon; ++t) {
    const util::SubstreamRng round_stream =
        root.Derive(static_cast<uint64_t>(t));
    util::ShardedFor(pool, num_users,
                     [&](int /*shard*/, int64_t begin, int64_t end) {
                       for (int64_t i = begin; i < end; ++i) {
                         util::SubstreamRng user_stream =
                             round_stream.Leaf(static_cast<uint64_t>(i));
                         round[static_cast<size_t>(i)] =
                             user_stream.Bernoulli(p) ? 1 : 0;
                       }
                     });
    LONGDP_RETURN_NOT_OK(ds.AppendRound(round));
  }
  return ds;
}

Status ValidateMarkovParams(const MarkovParams& params) {
  auto in01 = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!in01(params.initial_rate) || !in01(params.entry_prob) ||
      !in01(params.exit_prob)) {
    return Status::InvalidArgument(
        "Markov probabilities must all lie in [0,1]");
  }
  return Status::OK();
}

Result<LongitudinalDataset> TwoStateMarkov(int64_t num_users, int64_t horizon,
                                           const MarkovParams& params,
                                           util::SubstreamRng* rng) {
  LONGDP_RETURN_NOT_OK(ValidateMarkovParams(params));
  std::vector<MixtureComponent> one = {{1.0, params}};
  return SubpopulationMixture(num_users, horizon, one, rng);
}

Result<LongitudinalDataset> TwoStateMarkov(int64_t num_users, int64_t horizon,
                                           const MarkovParams& params,
                                           uint64_t seed,
                                           util::ThreadPool* pool) {
  LONGDP_RETURN_NOT_OK(ValidateMarkovParams(params));
  std::vector<MixtureComponent> one = {{1.0, params}};
  return SubpopulationMixture(num_users, horizon, one, seed, pool);
}

Result<LongitudinalDataset> SubpopulationMixture(
    int64_t num_users, int64_t horizon,
    const std::vector<MixtureComponent>& components, util::SubstreamRng* rng) {
  LONGDP_RETURN_NOT_OK(ValidateMixture(components));
  std::vector<size_t> component_of = AssignComponents(num_users, components);

  LONGDP_ASSIGN_OR_RETURN(auto ds,
                          LongitudinalDataset::Create(num_users, horizon));
  std::vector<uint8_t> state(static_cast<size_t>(num_users), 0);
  for (size_t i = 0; i < state.size(); ++i) {
    state[i] =
        rng->Bernoulli(components[component_of[i]].params.initial_rate) ? 1
                                                                        : 0;
  }
  LONGDP_RETURN_NOT_OK(ds.AppendRound(state));
  for (int64_t t = 2; t <= horizon; ++t) {
    for (size_t i = 0; i < state.size(); ++i) {
      const MarkovParams& p = components[component_of[i]].params;
      if (state[i]) {
        if (rng->Bernoulli(p.exit_prob)) state[i] = 0;
      } else {
        if (rng->Bernoulli(p.entry_prob)) state[i] = 1;
      }
    }
    LONGDP_RETURN_NOT_OK(ds.AppendRound(state));
  }
  return ds;
}

Result<LongitudinalDataset> SubpopulationMixture(
    int64_t num_users, int64_t horizon,
    const std::vector<MixtureComponent>& components, uint64_t seed,
    util::ThreadPool* pool) {
  LONGDP_RETURN_NOT_OK(ValidateMixture(components));
  std::vector<size_t> component_of = AssignComponents(num_users, components);

  LONGDP_ASSIGN_OR_RETURN(auto ds,
                          LongitudinalDataset::Create(num_users, horizon));
  const util::SubstreamRng root(seed, util::substream::kDataset);
  std::vector<uint8_t> state(static_cast<size_t>(num_users), 0);
  for (int64_t t = 1; t <= horizon; ++t) {
    const util::SubstreamRng round_stream =
        root.Derive(static_cast<uint64_t>(t));
    util::ShardedFor(
        pool, num_users, [&](int /*shard*/, int64_t begin, int64_t end) {
          for (int64_t i = begin; i < end; ++i) {
            const size_t ii = static_cast<size_t>(i);
            const MarkovParams& p = components[component_of[ii]].params;
            util::SubstreamRng user_stream =
                round_stream.Leaf(static_cast<uint64_t>(i));
            if (t == 1) {
              state[ii] = user_stream.Bernoulli(p.initial_rate) ? 1 : 0;
            } else if (state[ii]) {
              if (user_stream.Bernoulli(p.exit_prob)) state[ii] = 0;
            } else {
              if (user_stream.Bernoulli(p.entry_prob)) state[ii] = 1;
            }
          }
        });
    LONGDP_RETURN_NOT_OK(ds.AppendRound(state));
  }
  return ds;
}

}  // namespace data
}  // namespace longdp
