#include "query/query_json.h"

#include <cmath>

#include "obs/obs.h"

namespace transpwr {
namespace query {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

/// Doubles that JSON cannot represent (the ±inf min/max sentinels of a
/// range with no finite values, NaN) become null.
void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  obs::json_append_double(out, v);
}

void append_head(std::string& out, const Executor& ex) {
  out += "{\"dataset\":";
  obs::json_append_quoted(out, ex.dataset().name);
}

void append_predicate(std::string& out, const Predicate& p) {
  out += ",\"cmp\":";
  obs::json_append_quoted(out, cmp_name(p.cmp));
  out += ",\"threshold\":";
  obs::json_append_double(out, p.threshold);
}

void append_rows(std::string& out, const RowRange& rows) {
  out += ",\"rows\":[";
  append_u64(out, rows.begin);
  out += ',';
  append_u64(out, rows.end);
  out += ']';
}

}  // namespace

std::string summary_json(const Executor& ex) {
  const store::DatasetInfo& ds = ex.dataset();
  std::string out;
  append_head(out, ex);
  out += ",\"summaries\":";
  out += ds.has_summaries() ? "true" : "false";
  out += ",\"chunks\":[";
  std::uint64_t row = 0;
  for (std::size_t c = 0; c < ds.summaries.size(); ++c) {
    const store::ChunkSummary& s = ds.summaries[c];
    if (c) out += ',';
    out += "{\"chunk\":";
    append_u64(out, c);
    out += ",\"rows\":[";
    append_u64(out, row);
    out += ',';
    append_u64(out, row + ds.chunks[c].rows);
    out += "],\"min\":";
    append_number(out, s.min);
    out += ",\"max\":";
    append_number(out, s.max);
    out += ",\"mean\":";
    append_number(out, s.finite ? s.sum / static_cast<double>(s.finite)
                                : std::nan(""));
    out += ",\"sum\":";
    append_number(out, s.sum);
    out += ",\"finite\":";
    append_u64(out, s.finite);
    out += ",\"nan\":";
    append_u64(out, s.nan);
    out += ",\"pos_inf\":";
    append_u64(out, s.pos_inf);
    out += ",\"neg_inf\":";
    append_u64(out, s.neg_inf);
    out += ",\"hist\":[";
    for (std::size_t b = 0; b < s.hist.size(); ++b) {
      if (b) out += ',';
      append_u64(out, s.hist[b]);
    }
    out += "]}";
    row += ds.chunks[c].rows;
  }
  out += "]}";
  return out;
}

std::string chunks_json(const Executor& ex, const Predicate& p,
                        const ChunkMatchResult& r) {
  std::string out;
  append_head(out, ex);
  append_predicate(out, p);
  out += ",\"chunks_total\":";
  append_u64(out, r.chunks_total);
  out += ",\"chunks_pruned\":";
  append_u64(out, r.chunks_pruned);
  out += ",\"chunks_decoded\":";
  append_u64(out, r.chunks_decoded);
  out += ",\"matches\":[";
  for (std::size_t i = 0; i < r.matches.size(); ++i) {
    const ChunkMatch& m = r.matches[i];
    if (i) out += ',';
    out += "{\"chunk\":";
    append_u64(out, m.chunk);
    out += ",\"rows\":[";
    append_u64(out, m.row_begin);
    out += ',';
    append_u64(out, m.row_end);
    out += "]}";
  }
  out += "]}";
  return out;
}

std::string aggregate_json(const Executor& ex, const RowRange& rows,
                           const Aggregate& a) {
  std::string out;
  append_head(out, ex);
  append_rows(out, rows);
  out += ",\"count\":";
  append_u64(out, a.count);
  out += ",\"finite\":";
  append_u64(out, a.finite);
  out += ",\"nan\":";
  append_u64(out, a.nan);
  out += ",\"pos_inf\":";
  append_u64(out, a.pos_inf);
  out += ",\"neg_inf\":";
  append_u64(out, a.neg_inf);
  out += ",\"min\":";
  append_number(out, a.finite ? a.min : std::nan(""));
  out += ",\"max\":";
  append_number(out, a.finite ? a.max : std::nan(""));
  out += ",\"sum\":";
  append_number(out, a.sum);
  out += ",\"mean\":";
  append_number(out, a.finite ? a.mean() : std::nan(""));
  out += ",\"chunks_pruned\":";
  append_u64(out, a.chunks_pruned);
  out += ",\"chunks_decoded\":";
  append_u64(out, a.chunks_decoded);
  out += '}';
  return out;
}

std::string count_json(const Executor& ex, const Predicate& p,
                       const RowRange& rows, const CountResult& r) {
  std::string out;
  append_head(out, ex);
  append_predicate(out, p);
  append_rows(out, rows);
  out += ",\"matching\":";
  append_u64(out, r.matching);
  out += ",\"total\":";
  append_u64(out, r.total);
  out += ",\"chunks_pruned\":";
  append_u64(out, r.chunks_pruned);
  out += ",\"chunks_decoded\":";
  append_u64(out, r.chunks_decoded);
  out += '}';
  return out;
}

std::string preview_json(const Executor& ex, const RowRange& rows,
                         const Preview& pv) {
  std::string out;
  append_head(out, ex);
  append_rows(out, rows);
  out += ",\"stride\":";
  append_u64(out, pv.stride);
  out += ",\"chunks_decoded\":";
  append_u64(out, pv.chunks_decoded);
  out += ",\"points\":[";
  for (std::size_t i = 0; i < pv.rows.size(); ++i) {
    if (i) out += ',';
    out += '[';
    append_u64(out, pv.rows[i]);
    out += ',';
    append_number(out, pv.values[i]);
    out += ']';
  }
  out += "]}";
  return out;
}

}  // namespace query
}  // namespace transpwr
