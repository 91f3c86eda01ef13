#include "core/release_log.h"

#include <fstream>
#include <limits>

#include "util/csv.h"

namespace longdp {
namespace core {

Status ReleaseLog::Capture(const FixedWindowSynthesizer& synth) {
  if (!synth.has_release()) return Status::OK();
  WindowRelease release;
  release.t = synth.t();
  release.window_k = synth.window_k();
  release.npad = synth.npad();
  release.true_n = synth.population();
  release.histogram = synth.SyntheticHistogram();
  return Append(std::move(release));
}

Status ReleaseLog::Capture(const CumulativeSynthesizer& synth) {
  if (synth.t() < 1) {
    return Status::FailedPrecondition("no cumulative release yet");
  }
  CumulativeRelease release;
  release.t = synth.t();
  release.thresholds = synth.released_thresholds();
  return Append(std::move(release));
}

Status ReleaseLog::Capture(const CategoricalWindowSynthesizer& synth) {
  if (!synth.has_release()) return Status::OK();
  CategoricalRelease release;
  release.t = synth.t();
  release.window_k = synth.window_k();
  release.alphabet = synth.alphabet();
  release.npad = synth.npad();
  release.true_n = synth.population();
  release.histogram = synth.SyntheticHistogram();
  return Append(std::move(release));
}

Status ReleaseLog::Append(WindowRelease release) {
  if (!window_.empty() && window_.back().t == release.t) {
    return Status::AlreadyExists("release for t=" + std::to_string(release.t) +
                                 " already captured");
  }
  window_.push_back(std::move(release));
  return Status::OK();
}

Status ReleaseLog::Append(CumulativeRelease release) {
  if (!cumulative_.empty() && cumulative_.back().t == release.t) {
    return Status::AlreadyExists("release for t=" + std::to_string(release.t) +
                                 " already captured");
  }
  cumulative_.push_back(std::move(release));
  return Status::OK();
}

Status ReleaseLog::Append(CategoricalRelease release) {
  if (!categorical_.empty() && categorical_.back().t == release.t) {
    return Status::AlreadyExists("release for t=" + std::to_string(release.t) +
                                 " already captured");
  }
  categorical_.push_back(std::move(release));
  return Status::OK();
}

Status ReleaseLog::WriteCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open for writing: " + path);
  }
  util::CsvWriter writer(&out);
  writer.WriteRow({"kind", "t", "k", "alphabet", "npad", "true_n", "index",
                   "value"});
  for (const auto& r : window_) {
    for (size_t s = 0; s < r.histogram.size(); ++s) {
      writer.WriteRow({"window", std::to_string(r.t),
                       std::to_string(r.window_k), "0", std::to_string(r.npad),
                       std::to_string(r.true_n), std::to_string(s),
                       std::to_string(r.histogram[s])});
    }
  }
  for (const auto& r : cumulative_) {
    for (size_t b = 0; b < r.thresholds.size(); ++b) {
      writer.WriteRow({"cumulative", std::to_string(r.t), "0", "0", "0", "0",
                       std::to_string(b), std::to_string(r.thresholds[b])});
    }
  }
  for (const auto& r : categorical_) {
    for (size_t s = 0; s < r.histogram.size(); ++s) {
      writer.WriteRow({"categorical", std::to_string(r.t),
                       std::to_string(r.window_k),
                       std::to_string(r.alphabet), std::to_string(r.npad),
                       std::to_string(r.true_n), std::to_string(s),
                       std::to_string(r.histogram[s])});
    }
  }
  // An ofstream buffers; without an explicit flush a full disk or closed
  // descriptor would only surface in the destructor, after OK was returned.
  out.flush();
  return out.good() ? Status::OK() : Status::IOError("write failed: " + path);
}

namespace {

// Per-kind accumulation state for the strict sequential loader. A release's
// rows must be contiguous, indexed 0,1,2,... with identical metadata, and
// release times per kind must be strictly increasing — the shape WriteCsv
// always produces. Anything else (a duplicated block, an out-of-order
// concatenation, a dropped row) used to be silently absorbed into a
// plausible-looking log; now it fails with the offending row number.
struct ReleaseBuilder {
  bool open = false;
  int64_t last_t = std::numeric_limits<int64_t>::min();
  int64_t t = 0;
  int64_t k = 0;
  int64_t alphabet = 0;
  int64_t npad = 0;
  int64_t true_n = 0;
  std::vector<int64_t> values;
};

std::string RowRef(size_t rownum) {
  return " in row " + std::to_string(rownum);
}

Status CloseBuilder(const std::string& kind, ReleaseBuilder* b,
                    ReleaseLog* log) {
  Status append = Status::OK();
  if (kind == "window") {
    LONGDP_RETURN_NOT_OK(util::ValidateWindow(static_cast<int>(b->k)));
    if (b->values.size() != util::NumPatterns(static_cast<int>(b->k))) {
      return Status::InvalidArgument(
          "incomplete window release t=" + std::to_string(b->t) + ": got " +
          std::to_string(b->values.size()) + " of 2^" + std::to_string(b->k) +
          " histogram rows");
    }
    WindowRelease release;
    release.t = b->t;
    release.window_k = static_cast<int>(b->k);
    release.npad = b->npad;
    release.true_n = b->true_n;
    release.histogram = std::move(b->values);
    append = log->Append(std::move(release));
  } else if (kind == "cumulative") {
    CumulativeRelease release;
    release.t = b->t;
    release.thresholds = std::move(b->values);
    append = log->Append(std::move(release));
  } else {  // categorical
    LONGDP_ASSIGN_OR_RETURN(
        const uint64_t bins,
        SyntheticCohort::NumBins(static_cast<int>(b->k),
                                 static_cast<int>(b->alphabet)));
    if (b->values.size() != bins) {
      return Status::InvalidArgument(
          "incomplete categorical release t=" + std::to_string(b->t) +
          ": got " + std::to_string(b->values.size()) + " of " +
          std::to_string(bins) + " histogram rows");
    }
    CategoricalRelease release;
    release.t = b->t;
    release.window_k = static_cast<int>(b->k);
    release.alphabet = static_cast<int>(b->alphabet);
    release.npad = b->npad;
    release.true_n = b->true_n;
    release.histogram = std::move(b->values);
    append = log->Append(std::move(release));
  }
  b->last_t = b->t;
  b->open = false;
  b->values.clear();
  return append;
}

}  // namespace

Result<ReleaseLog> ReleaseLog::LoadCsv(const std::string& path) {
  LONGDP_ASSIGN_OR_RETURN(auto rows, util::ReadCsvFile(path));
  if (rows.empty() || rows[0].size() != 8 || rows[0][0] != "kind") {
    return Status::InvalidArgument(
        "not a release log CSV (expected the 8-column "
        "kind,t,k,alphabet,npad,true_n,index,value header): " +
        path);
  }
  ReleaseLog log;
  ReleaseBuilder window_b, cumulative_b, categorical_b;
  for (size_t r = 1; r < rows.size(); ++r) {
    const size_t rownum = r + 1;  // 1-based, counting the header as row 1
    const auto& row = rows[r];
    if (row.size() != 8) {
      return Status::InvalidArgument("malformed row " +
                                     std::to_string(rownum));
    }
    // Strict parses: a corrupted field must fail the load, not silently
    // parse to 0 (which would e.g. merge rows into release t=0).
    const std::string& kind = row[0];
    ReleaseBuilder* b = nullptr;
    if (kind == "window") {
      b = &window_b;
    } else if (kind == "cumulative") {
      b = &cumulative_b;
    } else if (kind == "categorical") {
      b = &categorical_b;
    } else {
      return Status::InvalidArgument("unknown release kind '" + kind + "'" +
                                     RowRef(rownum));
    }
    LONGDP_ASSIGN_OR_RETURN(const int64_t t, util::ParseInt64Field(row[1]));
    LONGDP_ASSIGN_OR_RETURN(const int64_t k, util::ParseInt64Field(row[2]));
    LONGDP_ASSIGN_OR_RETURN(const int64_t alphabet,
                            util::ParseInt64Field(row[3]));
    LONGDP_ASSIGN_OR_RETURN(const int64_t npad, util::ParseInt64Field(row[4]));
    LONGDP_ASSIGN_OR_RETURN(const int64_t true_n,
                            util::ParseInt64Field(row[5]));
    LONGDP_ASSIGN_OR_RETURN(const int64_t index, util::ParseInt64Field(row[6]));
    LONGDP_ASSIGN_OR_RETURN(const int64_t value, util::ParseInt64Field(row[7]));
    if (index < 0) {
      return Status::InvalidArgument("negative bucket index" + RowRef(rownum));
    }
    // Fields a kind never uses must be zero; a nonzero one is the signature
    // of a column shift or a file written by a different schema.
    if (kind == "cumulative" &&
        (k != 0 || alphabet != 0 || npad != 0 || true_n != 0)) {
      return Status::InvalidArgument("nonzero metadata in cumulative row" +
                                     RowRef(rownum));
    }
    if (kind == "window" && alphabet != 0) {
      return Status::InvalidArgument("nonzero alphabet in window row" +
                                     RowRef(rownum));
    }

    // An index restarting at 0 under the same t is not a continuation: it
    // is the first row of a second block (a duplicated release), so it
    // falls through to the new-block path where the duplicate check fires.
    const bool restarts = index == 0 && !b->values.empty();
    if (b->open && t == b->t && !restarts) {
      if (k != b->k || alphabet != b->alphabet || npad != b->npad ||
          true_n != b->true_n) {
        return Status::InvalidArgument(
            "inconsistent metadata within release t=" + std::to_string(t) +
            RowRef(rownum));
      }
      const int64_t expected = static_cast<int64_t>(b->values.size());
      if (index < expected) {
        return Status::InvalidArgument(
            "duplicate bucket index " + std::to_string(index) +
            " in release t=" + std::to_string(t) + RowRef(rownum));
      }
      if (index > expected) {
        return Status::InvalidArgument(
            "gap in bucket indices (expected " + std::to_string(expected) +
            ", got " + std::to_string(index) + ") in release t=" +
            std::to_string(t) + RowRef(rownum));
      }
      b->values.push_back(value);
      continue;
    }

    if (b->open) {
      LONGDP_RETURN_NOT_OK(CloseBuilder(kind, b, &log));
    }
    if (t == b->last_t) {
      return Status::InvalidArgument("duplicate " + kind + " release t=" +
                                     std::to_string(t) + RowRef(rownum));
    }
    if (t < b->last_t) {
      return Status::InvalidArgument(
          "out-of-order " + kind + " release t=" + std::to_string(t) +
          " after t=" + std::to_string(b->last_t) + RowRef(rownum));
    }
    if (index != 0) {
      return Status::InvalidArgument(
          "release t=" + std::to_string(t) + " must start at bucket index 0" +
          RowRef(rownum));
    }
    b->open = true;
    b->t = t;
    b->k = k;
    b->alphabet = alphabet;
    b->npad = npad;
    b->true_n = true_n;
    b->values.push_back(value);
  }
  if (window_b.open) {
    LONGDP_RETURN_NOT_OK(CloseBuilder("window", &window_b, &log));
  }
  if (cumulative_b.open) {
    LONGDP_RETURN_NOT_OK(CloseBuilder("cumulative", &cumulative_b, &log));
  }
  if (categorical_b.open) {
    LONGDP_RETURN_NOT_OK(CloseBuilder("categorical", &categorical_b, &log));
  }
  return log;
}

}  // namespace core
}  // namespace longdp
