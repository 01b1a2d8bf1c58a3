#include "query/query.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/error.h"
#include "obs/obs.h"

namespace transpwr {
namespace query {
namespace {

/// Does the summary prove *every* finite value in the chunk matches?
/// min/max are attained by actual reconstructed values, so these bounds
/// are tight, not conservative.
bool all_finite_match(const store::ChunkSummary& s, const Predicate& p) {
  if (s.finite == 0) return true;  // vacuously
  switch (p.cmp) {
    case Cmp::kGt: return s.min > p.threshold;
    case Cmp::kGe: return s.min >= p.threshold;
    case Cmp::kLt: return s.max < p.threshold;
    case Cmp::kLe: return s.max <= p.threshold;
  }
  return false;
}

/// Does the summary prove *no* finite value in the chunk matches?
bool no_finite_match(const store::ChunkSummary& s, const Predicate& p) {
  if (s.finite == 0) return true;
  switch (p.cmp) {
    case Cmp::kGt: return s.max <= p.threshold;
    case Cmp::kGe: return s.max < p.threshold;
    case Cmp::kLt: return s.min >= p.threshold;
    case Cmp::kLe: return s.min > p.threshold;
  }
  return false;
}

/// Infinities always compare decisively: +inf matches every gt/ge,
/// -inf matches every lt/le (thresholds are finite by construction).
std::uint64_t inf_matches(const store::ChunkSummary& s, const Predicate& p) {
  return (p.cmp == Cmp::kGt || p.cmp == Cmp::kGe) ? s.pos_inf : s.neg_inf;
}

}  // namespace

bool Predicate::matches(double v) const {
  switch (cmp) {
    case Cmp::kGt: return v > threshold;
    case Cmp::kGe: return v >= threshold;
    case Cmp::kLt: return v < threshold;
    case Cmp::kLe: return v <= threshold;
  }
  return false;
}

const char* cmp_name(Cmp cmp) {
  switch (cmp) {
    case Cmp::kGt: return "gt";
    case Cmp::kGe: return "ge";
    case Cmp::kLt: return "lt";
    case Cmp::kLe: return "le";
  }
  return "?";
}

Predicate parse_predicate(std::string_view spec) {
  const auto colon = spec.find(':');
  if (colon == std::string_view::npos)
    throw ParamError("query: predicate must be CMP:THRESHOLD, e.g. gt:1.5");
  const std::string_view op = spec.substr(0, colon);
  Predicate p;
  if (op == "gt") p.cmp = Cmp::kGt;
  else if (op == "ge") p.cmp = Cmp::kGe;
  else if (op == "lt") p.cmp = Cmp::kLt;
  else if (op == "le") p.cmp = Cmp::kLe;
  else
    throw ParamError("query: unknown comparison (want gt/ge/lt/le): " +
                     std::string(op));
  const std::string num(spec.substr(colon + 1));
  if (num.empty()) throw ParamError("query: empty predicate threshold");
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(num.c_str(), &end);
  if (end != num.c_str() + num.size() || errno == ERANGE)
    throw ParamError("query: bad predicate threshold: " + num);
  if (!std::isfinite(v))
    throw ParamError("query: predicate threshold must be finite");
  p.threshold = v;
  return p;
}

Executor::Executor(store::ArchiveReader& reader, const std::string& dataset)
    : reader_(&reader),
      ds_(&reader.dataset(dataset)),
      plan_(&reader.plan(dataset)),
      row_elems_(ds_->dims.count() / ds_->dims[0]) {}

RowRange Executor::resolve(const RowRange& range) const {
  RowRange r = range;
  if (r.begin == 0 && r.end == 0) r.end = ds_->dims[0];
  if (r.begin >= r.end || r.end > ds_->dims[0])
    throw ParamError("query: row range out of bounds");
  return r;
}

RowRange Executor::chunk_rows(std::size_t c) const {
  return {plan_->row_begin(c), plan_->row_begin(c + 1)};
}

void Executor::scan_chunk(std::size_t c, std::uint64_t row_begin,
                          std::uint64_t row_end, const Predicate* p,
                          Aggregate* agg, std::uint64_t* matching) {
  const std::uint64_t lo = (row_begin - plan_->row_begin(c)) * row_elems_;
  const std::uint64_t hi = (row_end - plan_->row_begin(c)) * row_elems_;
  auto fold = [&](auto&& values) {
    for (std::uint64_t i = lo; i < hi; ++i) {
      const double v = static_cast<double>(values[i]);
      if (matching && p->matches(v)) ++*matching;
      if (!agg) continue;
      ++agg->count;
      if (std::isnan(v)) {
        ++agg->nan;
      } else if (std::isinf(v)) {
        ++(v > 0 ? agg->pos_inf : agg->neg_inf);
      } else {
        ++agg->finite;
        agg->min = std::min(agg->min, v);
        agg->max = std::max(agg->max, v);
        agg->sum += v;
      }
    }
  };
  if (ds_->dtype == DataType::kFloat32)
    fold(reader_->load_chunk<float>(ds_->name, c));
  else
    fold(reader_->load_chunk<double>(ds_->name, c));
  obs::counter_add("query.chunks_decoded");
}

ChunkMatchResult Executor::find_chunks(const Predicate& p) {
  obs::Span span("query.find_chunks");
  obs::counter_add("query.requests");
  ChunkMatchResult out;
  out.chunks_total = ds_->chunks.size();
  if (!has_summaries()) {
    // v1 fallback: no summaries to consult — decode every chunk and keep
    // the ones that actually contain a match.
    obs::counter_add("query.fallback_scans");
    for (std::size_t c = 0; c < ds_->chunks.size(); ++c) {
      std::uint64_t matching = 0;
      const RowRange r = chunk_rows(c);
      scan_chunk(c, r.begin, r.end, &p, nullptr, &matching);
      ++out.chunks_decoded;
      if (matching)
        out.matches.push_back({c, r.begin, r.end, /*decided=*/true});
    }
    obs::gauge_set("query.last_chunks_decoded",
                   static_cast<double>(out.chunks_decoded));
    return out;
  }
  // min/max are attained values, so "does a matching value exist" is
  // exactly decidable from the summary — every chunk resolves without a
  // decode.
  for (std::size_t c = 0; c < ds_->chunks.size(); ++c) {
    const store::ChunkSummary& s = ds_->summaries[c];
    const bool any =
        inf_matches(s, p) > 0 || (s.finite > 0 && !no_finite_match(s, p));
    if (any) {
      const RowRange r = chunk_rows(c);
      out.matches.push_back({c, r.begin, r.end, /*decided=*/true});
    }
    ++out.chunks_pruned;
  }
  obs::counter_add("query.chunks_pruned", out.chunks_pruned);
  return out;
}

Aggregate Executor::aggregate(const RowRange& range) {
  obs::Span span("query.aggregate");
  obs::counter_add("query.requests");
  const RowRange r = resolve(range);
  Aggregate agg;
  agg.min = std::numeric_limits<double>::infinity();
  agg.max = -std::numeric_limits<double>::infinity();
  if (!has_summaries()) obs::counter_add("query.fallback_scans");
  for (std::size_t c = 0; c < ds_->chunks.size(); ++c) {
    const RowRange cr = chunk_rows(c);
    if (cr.end <= r.begin || cr.begin >= r.end) continue;
    const bool whole = cr.begin >= r.begin && cr.end <= r.end;
    if (whole && has_summaries()) {
      const store::ChunkSummary& s = ds_->summaries[c];
      agg.count += s.total();
      agg.finite += s.finite;
      agg.nan += s.nan;
      agg.pos_inf += s.pos_inf;
      agg.neg_inf += s.neg_inf;
      agg.min = std::min(agg.min, s.min);
      agg.max = std::max(agg.max, s.max);
      agg.sum += s.sum;
      ++agg.chunks_pruned;
      continue;
    }
    scan_chunk(c, std::max(cr.begin, r.begin), std::min(cr.end, r.end),
               nullptr, &agg, nullptr);
    ++agg.chunks_decoded;
  }
  obs::counter_add("query.chunks_pruned", agg.chunks_pruned);
  return agg;
}

CountResult Executor::count_where(const Predicate& p, const RowRange& range) {
  obs::Span span("query.count_where");
  obs::counter_add("query.requests");
  const RowRange r = resolve(range);
  CountResult out;
  out.total = (r.end - r.begin) * row_elems_;
  if (!has_summaries()) obs::counter_add("query.fallback_scans");
  for (std::size_t c = 0; c < ds_->chunks.size(); ++c) {
    const RowRange cr = chunk_rows(c);
    if (cr.end <= r.begin || cr.begin >= r.end) continue;
    const bool whole = cr.begin >= r.begin && cr.end <= r.end;
    if (whole && has_summaries()) {
      const store::ChunkSummary& s = ds_->summaries[c];
      if (all_finite_match(s, p)) {
        out.matching += s.finite + inf_matches(s, p);
        ++out.chunks_pruned;
        continue;
      }
      if (no_finite_match(s, p)) {
        out.matching += inf_matches(s, p);
        ++out.chunks_pruned;
        continue;
      }
      // The predicate cuts through this chunk's value range — only a
      // decode can count exactly.
    }
    scan_chunk(c, std::max(cr.begin, r.begin), std::min(cr.end, r.end), &p,
               nullptr, &out.matching);
    ++out.chunks_decoded;
  }
  obs::counter_add("query.chunks_pruned", out.chunks_pruned);
  return out;
}

Preview Executor::preview(std::uint64_t points, const RowRange& range) {
  obs::Span span("query.preview");
  obs::counter_add("query.requests");
  const RowRange r = resolve(range);
  if (points == 0) throw ParamError("query: preview needs points > 0");
  Preview out;
  const std::uint64_t rows = r.end - r.begin;
  out.stride = std::max<std::uint64_t>(1, rows / points);
  if (!has_summaries()) obs::counter_add("query.fallback_scans");
  std::size_t c = 0;
  std::vector<float> f32;
  std::vector<double> f64;
  std::size_t loaded = static_cast<std::size_t>(-1);
  for (std::uint64_t row = r.begin; row < r.end; row += out.stride) {
    while (chunk_rows(c).end <= row) ++c;
    if (c != loaded) {
      if (ds_->dtype == DataType::kFloat32)
        f32 = reader_->load_chunk<float>(ds_->name, c);
      else
        f64 = reader_->load_chunk<double>(ds_->name, c);
      loaded = c;
      ++out.chunks_decoded;
      obs::counter_add("query.chunks_decoded");
    }
    const std::uint64_t at = (row - plan_->row_begin(c)) * row_elems_;
    out.rows.push_back(row);
    out.values.push_back(ds_->dtype == DataType::kFloat32
                             ? static_cast<double>(f32[at])
                             : f64[at]);
  }
  return out;
}

}  // namespace query
}  // namespace transpwr
