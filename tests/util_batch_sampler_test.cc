// Deterministic unit tests for the batched stage-2 sampling primitives:
// BatchSampler's Lemire multiply-shift bounded draws, the PartialShuffle
// primitive (including the k == span full-shuffle and single-element edges
// the old inline loops hand-rolled), and the FlatGroups counting-sort
// regroup. Distributional properties live in sampling_statistical_test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "util/batch_sampler.h"
#include "util/flat_groups.h"
#include "util/substream.h"

namespace longdp {
namespace util {
namespace {

TEST(BatchSamplerTest, BoundedStaysInRange) {
  SubstreamRng rng(1);
  BatchSampler sampler(&rng);
  for (uint64_t bound : {2ull, 3ull, 10ull, 12345ull, 1ull << 40}) {
    for (int i = 0; i < 2000; ++i) {
      EXPECT_LT(sampler.Bounded(bound), bound) << "bound=" << bound;
    }
  }
}

TEST(BatchSamplerTest, BoundedDegenerateBoundsConsumeNoWords) {
  // bound 0 and bound 1 have a single representable answer; the stream
  // must not advance (unlike SubstreamRng::UniformInt(1), which burns a
  // word).
  SubstreamRng rng(7), reference(7);
  BatchSampler sampler(&rng);
  EXPECT_EQ(sampler.Bounded(0), 0u);
  EXPECT_EQ(sampler.Bounded(1), 0u);
  EXPECT_EQ(rng.Next(), reference.Next());
}

TEST(BatchSamplerTest, BoundedDeterministicFromSeed) {
  SubstreamRng a(42), b(42);
  BatchSampler sa(&a), sb(&b);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(sa.Bounded(997), sb.Bounded(997));
  }
}

TEST(BatchSamplerTest, BulkMatchesSingleDraws) {
  // With identical seeds, the bulk fill and a loop of single draws see the
  // same word stream, so (absent astronomically rare rejections) the
  // outputs coincide element for element.
  const uint64_t kBound = 12289;
  const size_t kCount = 1000;  // spans multiple prefetch chunks
  SubstreamRng a(99), b(99);
  BatchSampler sa(&a), sb(&b);
  std::vector<uint64_t> bulk(kCount);
  sa.BoundedBulk(kBound, bulk.data(), kCount);
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(bulk[i], sb.Bounded(kBound)) << "i=" << i;
  }
  // Both consumed exactly kCount words.
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(BatchSamplerTest, BulkDegenerateBoundZeroFillsWithoutWords) {
  SubstreamRng rng(5), reference(5);
  BatchSampler sampler(&rng);
  std::vector<uint64_t> out(64, 0xFFFFFFFFull);
  sampler.BoundedBulk(1, out.data(), out.size());
  for (uint64_t v : out) EXPECT_EQ(v, 0u);
  sampler.BoundedBulk(0, out.data(), out.size());
  for (uint64_t v : out) EXPECT_EQ(v, 0u);
  EXPECT_EQ(rng.Next(), reference.Next());
}

TEST(BatchSamplerTest, BulkCoversAllResidues) {
  SubstreamRng rng(3);
  BatchSampler sampler(&rng);
  std::vector<uint64_t> out(4000);
  sampler.BoundedBulk(7, out.data(), out.size());
  std::vector<int> seen(7, 0);
  for (uint64_t v : out) {
    ASSERT_LT(v, 7u);
    ++seen[static_cast<size_t>(v)];
  }
  for (int c : seen) EXPECT_GT(c, 0);
}

TEST(BatchSamplerTest, PartialShufflePermutes) {
  SubstreamRng rng(11);
  BatchSampler sampler(&rng);
  std::vector<int64_t> v(50);
  std::iota(v.begin(), v.end(), 0);
  sampler.PartialShuffle(v.data(), static_cast<int64_t>(v.size()), 20);
  std::vector<int64_t> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], static_cast<int64_t>(i));
  }
}

TEST(BatchSamplerTest, FullShuffleAndMaximalPartialShuffleMatch) {
  // k == n (full shuffle) must skip the final bound-1 draw, making it
  // stream- and output-identical to k == n - 1. This is the "k == span"
  // edge the old inline loops special-cased by hand.
  for (int64_t n : {2, 3, 17, 64, 301}) {
    SubstreamRng a(1000 + static_cast<uint64_t>(n));
    SubstreamRng b(1000 + static_cast<uint64_t>(n));
    BatchSampler sa(&a), sb(&b);
    std::vector<int64_t> va(static_cast<size_t>(n)), vb(static_cast<size_t>(n));
    std::iota(va.begin(), va.end(), 0);
    std::iota(vb.begin(), vb.end(), 0);
    sa.PartialShuffle(va.data(), n, n);
    sb.PartialShuffle(vb.data(), n, n - 1);
    EXPECT_EQ(va, vb) << "n=" << n;
    EXPECT_EQ(a.Next(), b.Next()) << "n=" << n;
  }
}

TEST(BatchSamplerTest, PartialShuffleClampsOversizedK) {
  SubstreamRng a(21), b(21);
  BatchSampler sa(&a), sb(&b);
  std::vector<int64_t> va(10), vb(10);
  std::iota(va.begin(), va.end(), 0);
  std::iota(vb.begin(), vb.end(), 0);
  sa.PartialShuffle(va.data(), 10, 1000);
  sb.PartialShuffle(vb.data(), 10, 10);
  EXPECT_EQ(va, vb);
  EXPECT_EQ(a.Next(), b.Next());
}

TEST(BatchSamplerTest, PartialShuffleDegenerateSpansAreNoOps) {
  SubstreamRng rng(31), reference(31);
  BatchSampler sampler(&rng);
  std::vector<int64_t> single{7};
  sampler.PartialShuffle(single.data(), 1, 1);   // one element
  EXPECT_EQ(single[0], 7);
  sampler.PartialShuffle(single.data(), 1, 50);  // k > n == 1
  EXPECT_EQ(single[0], 7);
  std::vector<int64_t> several{1, 2, 3};
  sampler.PartialShuffle(several.data(), 3, 0);  // k == 0
  EXPECT_EQ(several, (std::vector<int64_t>{1, 2, 3}));
  sampler.PartialShuffle(several.data(), 0, 3);  // empty span
  // None of the above may touch the stream.
  EXPECT_EQ(rng.Next(), reference.Next());
}

TEST(BatchSamplerTest, PartialShuffleSpansChunkBoundary) {
  // More draws than one prefetch chunk (256 words) exercises the refill
  // path; the result must still be a permutation and deterministic.
  SubstreamRng a(77), b(77);
  BatchSampler sa(&a), sb(&b);
  std::vector<int64_t> va(1000), vb(1000);
  std::iota(va.begin(), va.end(), 0);
  std::iota(vb.begin(), vb.end(), 0);
  sa.PartialShuffle(va.data(), 1000, 600);
  sb.PartialShuffle(vb.data(), 1000, 600);
  EXPECT_EQ(va, vb);
  std::sort(va.begin(), va.end());
  for (size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i], static_cast<int64_t>(i));
  }
}

TEST(BatchSamplerTest, ShuffleMatchesPartialShuffleFullSpan) {
  SubstreamRng a(55), b(55);
  BatchSampler sa(&a), sb(&b);
  std::vector<int64_t> va(40), vb(40);
  std::iota(va.begin(), va.end(), 0);
  std::iota(vb.begin(), vb.end(), 0);
  sa.Shuffle(&va);
  sb.PartialShuffle(vb.data(), 40, 40);
  EXPECT_EQ(va, vb);
}

// Claims one slot of group g and writes record `rec` into it.
void Place(FlatGroups* groups, size_t g, uint32_t rec) {
  groups->data()[groups->Claim(g, 1)] = rec;
}

TEST(FlatGroupsTest, CountPrefixScatterRoundTrip) {
  FlatGroups g;
  g.Reset(3);
  g.AddCount(0, 2);
  g.AddCount(2, 3);
  g.AddCount(0, 1);  // counts accumulate
  g.BuildOffsets();
  EXPECT_EQ(g.num_groups(), 3u);
  EXPECT_EQ(g.size(0), 3);
  EXPECT_EQ(g.size(1), 0);
  EXPECT_EQ(g.size(2), 3);
  EXPECT_EQ(g.total(), 6);
  // Claim out of group order; within-group order follows claim order.
  Place(&g, 2, 100);
  Place(&g, 0, 10);
  Place(&g, 2, 101);
  Place(&g, 0, 11);
  Place(&g, 0, 12);
  Place(&g, 2, 102);
  EXPECT_EQ(std::vector<uint32_t>(g.group_data(0), g.group_data(0) + 3),
            (std::vector<uint32_t>{10, 11, 12}));
  EXPECT_EQ(std::vector<uint32_t>(g.group_data(2), g.group_data(2) + 3),
            (std::vector<uint32_t>{100, 101, 102}));
}

TEST(FlatGroupsTest, ResetKeepsNothingAndSupportsReuse) {
  FlatGroups g;
  g.Reset(2);
  g.AddCount(0, 4);
  g.BuildOffsets();
  for (uint32_t r = 0; r < 4; ++r) Place(&g, 0, r);
  g.Reset(5);
  EXPECT_EQ(g.num_groups(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(g.size(i), 0);
  g.AddCount(4, 1);
  g.BuildOffsets();
  Place(&g, 4, 9);
  EXPECT_EQ(g.total(), 1);
  EXPECT_EQ(g.group_data(4)[0], 9u);
}

TEST(FlatGroupsTest, SwapExchangesContents) {
  FlatGroups a, b;
  a.Reset(1);
  a.AddCount(0, 1);
  a.BuildOffsets();
  Place(&a, 0, 42);
  b.Reset(2);
  b.BuildOffsets();
  a.swap(b);
  EXPECT_EQ(a.num_groups(), 2u);
  EXPECT_EQ(a.total(), 0);
  EXPECT_EQ(b.num_groups(), 1u);
  EXPECT_EQ(b.group_data(0)[0], 42u);
}

TEST(FlatGroupsTest, EmptyGroupsHaveValidZeroState) {
  FlatGroups g;
  EXPECT_EQ(g.num_groups(), 0u);
  EXPECT_EQ(g.total(), 0);
  g.Reset(0);
  g.BuildOffsets();
  EXPECT_EQ(g.num_groups(), 0u);
  EXPECT_EQ(g.total(), 0);
}

}  // namespace
}  // namespace util
}  // namespace longdp
