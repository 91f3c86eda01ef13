// Counting-sort record regrouping: the flat replacement for the ragged
// vector<vector<record>> "group index" the synthesizers rebuild every
// round.
//
// The stage-2 slide of the window synthesizers moves EVERY record to a new
// (k-1)-overlap group each round. With ragged vectors that is one
// capacity-checked push_back per record into A^{k-1} separately allocated
// vectors; with a counting sort it is the classic three-phase pass over one
// contiguous array:
//
//   1. count:   AddCount(g, c)  — per-group totals, known arithmetically
//               from the slide targets before any record moves;
//   2. offsets: BuildOffsets()  — one exclusive prefix sum;
//   3. plan:    Claim(g, c)     — hands out the next c slots of group g as
//               an offset into data(), in call order.
//
// Claims only compute offsets, so the caller can plan every run of records
// first and then fill the claimed ranges in any order, or from several
// threads at once: distinct claims never overlap. A deterministic claim
// order gives a deterministic regrouping. Record ids are uint32_t: a
// population is capped at stream::state_io::kMaxRecords = 2^32 - 1, which
// halves the arrays against int64_t ids. Two FlatGroups double-buffer
// across rounds (swap), and Reset keeps capacity, so the steady state
// allocates nothing.

#ifndef LONGDP_UTIL_FLAT_GROUPS_H_
#define LONGDP_UTIL_FLAT_GROUPS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace longdp {
namespace util {

class FlatGroups {
 public:
  /// Starts a new count phase with `num_groups` empty groups. Keeps
  /// capacity from prior rounds.
  void Reset(size_t num_groups);

  /// Count phase: group `g` will receive `c` more records. Only valid
  /// between Reset and BuildOffsets.
  void AddCount(size_t g, int64_t c) { cursor_[g] += c; }

  /// Prefix-sums the declared counts into group offsets and arms the
  /// per-group claim cursors. Call exactly once per Reset, after all
  /// AddCount calls.
  void BuildOffsets();

  /// Plan phase: reserves the next `count` slots of group `g` and returns
  /// the offset of the first one in data(). The caller must not claim
  /// more slots of a group than it declared.
  int64_t Claim(size_t g, int64_t count) {
    const int64_t at = cursor_[g];
    cursor_[g] += count;
    return at;
  }

  /// Claims `count` slots of group `g` and fills them with the consecutive
  /// record ids first, first + 1, ..., first + count - 1.
  void PlaceSequence(size_t g, uint32_t first, int64_t count) {
    uint32_t* dst = records_.data() + static_cast<size_t>(Claim(g, count));
    for (int64_t i = 0; i < count; ++i) {
      dst[i] = first + static_cast<uint32_t>(i);
    }
  }

  size_t num_groups() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }
  int64_t size(size_t g) const { return offsets_[g + 1] - offsets_[g]; }
  int64_t total() const { return offsets_.empty() ? 0 : offsets_.back(); }

  /// All groups' records, concatenated in group order (valid after
  /// BuildOffsets; contents meaningful once the claimed slots are filled).
  uint32_t* data() { return records_.data(); }

  /// Mutable view of group g's records.
  uint32_t* group_data(size_t g) {
    return records_.data() + static_cast<size_t>(offsets_[g]);
  }
  const uint32_t* group_data(size_t g) const {
    return records_.data() + static_cast<size_t>(offsets_[g]);
  }

  void swap(FlatGroups& other) {
    records_.swap(other.records_);
    offsets_.swap(other.offsets_);
    cursor_.swap(other.cursor_);
  }

 private:
  std::vector<uint32_t> records_;  ///< all groups, concatenated
  std::vector<int64_t> offsets_;   ///< num_groups + 1 boundaries
  /// Counts during the count phase, then per-group claim cursors.
  std::vector<int64_t> cursor_;
};

}  // namespace util
}  // namespace longdp

#endif  // LONGDP_UTIL_FLAT_GROUPS_H_
