#include "parallel/slab.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>

#include "common/decode_guard.h"
#include "common/error.h"
#include "common/parallel.h"

namespace transpwr {
namespace slab {

Plan Plan::of_rows(std::size_t rows, std::size_t per) {
  per = std::clamp<std::size_t>(per, 1, rows);
  Plan plan;
  for (std::size_t b = per; b < rows; b += per) plan.begin_.push_back(b);
  plan.begin_.push_back(rows);
  return plan;
}

Plan Plan::of_count(std::size_t rows, std::size_t n) {
  n = std::clamp<std::size_t>(n, 1, rows);
  return of_rows(rows, (rows + n - 1) / n);
}

Plan Plan::from_table(std::size_t rows, std::span<const std::uint64_t> table,
                      const char* who) {
  Plan plan;
  for (auto rc : table) {
    // Subtraction form: a huge 64-bit row count must not wrap.
    if (rc == 0 || rc > rows - plan.begin_.back())
      throw StreamError(std::string(who) +
                        ": slab rows do not sum to field rows");
    plan.begin_.push_back(plan.begin_.back() + static_cast<std::size_t>(rc));
  }
  if (plan.begin_.back() != rows)
    throw StreamError(std::string(who) +
                      ": slab rows do not sum to field rows");
  return plan;
}

void compress_in_order(std::size_t n, std::size_t threads,
                       const std::function<void(std::size_t)>& work,
                       const std::function<void(std::size_t)>& emit) {
  ParallelOptions opts;
  opts.max_threads = threads;
  opts.grain = 1;
  const std::size_t tasks = parallel_task_count(n, opts);
  // All state is guarded by `mu`; slabs are coarse, so locking is cheap.
  std::mutex mu;
  std::condition_variable cv;
  std::vector<char> done(n, 0);
  std::size_t next = 0, emitted = 0, helpers = tasks - 1;
  std::exception_ptr err;  // the first failure stops claims and emits
  auto attempt = [](const std::function<void(std::size_t)>& fn,
                    std::size_t i) -> std::exception_ptr {
    try {
      fn(i);
      return nullptr;
    } catch (...) {
      return std::current_exception();
    }
  };
  // Claim and run one slab with `lk` released; false when none is left.
  auto run_one = [&](std::unique_lock<std::mutex>& lk) {
    if (err || next == n) return false;
    const std::size_t i = next++;
    lk.unlock();
    auto e = attempt(work, i);
    lk.lock();
    if (e && !err) err = e;
    done[i] = 1;
    cv.notify_all();
    return true;
  };
  for (std::size_t h = 1; h < tasks; ++h) {
    global_pool().submit([&] {
      std::unique_lock lk(mu);
      while (run_one(lk)) {
      }
      --helpers;
      cv.notify_all();
    });
  }
  // The caller emits in order; while the next slab is not ready it
  // compresses an unclaimed one itself instead of idling.
  std::unique_lock lk(mu);
  while (!err && emitted < n) {
    if (done[emitted]) {
      lk.unlock();
      auto e = attempt(emit, emitted++);
      lk.lock();
      if (e && !err) err = e;
    } else if (!run_one(lk)) {
      cv.wait(lk, [&] { return err || done[emitted]; });
    }
  }
  cv.wait(lk, [&] { return helpers == 0; });
  if (err) std::rethrow_exception(err);
}

template <typename T>
std::vector<T> decode(Scheme scheme, std::span<const std::uint8_t> stream,
                      Dims want) {
  auto comp = make_compressor(scheme);
  Dims got;
  std::vector<T> data;
  if constexpr (std::is_same_v<T, float>)
    data = comp->decompress_f32(stream, &got);
  else
    data = comp->decompress_f64(stream, &got);
  if (!(got == want) || data.size() != want.count())
    throw StreamError("slab: decoded shape " + got.to_string() +
                      " does not match the planned " + want.to_string());
  return data;
}

template <typename T>
std::vector<T> read_rows(const Plan& plan, Dims field, std::size_t row_begin,
                         std::size_t row_end, std::size_t threads,
                         const std::function<Decoded(std::size_t)>& fetch,
                         const char* who, Dims* roi_dims_out) {
  if (row_begin >= row_end || row_end > field[0])
    throw ParamError(std::string(who) + ": row range out of bounds");
  const std::size_t row_bytes = field.count() / field[0] * sizeof(T);
  Dims roi = field;
  roi.d[0] = row_end - row_begin;
  check_decode_alloc(roi.count(), sizeof(T), who);
  if (roi_dims_out) *roi_dims_out = roi;

  // Only the overlapping slabs [first, last) are fetched, so only they
  // are read and checksummed.
  std::size_t first = 0;
  while (plan.row_begin(first + 1) <= row_begin) ++first;
  std::size_t last = first;
  while (last < plan.size() && plan.row_begin(last) < row_end) ++last;
  std::vector<T> out(roi.count());
  ParallelOptions opts;
  opts.max_threads = threads;
  opts.grain = 1;
  parallel_for(
      last - first,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = first + begin; i < first + end; ++i) {
          const Decoded slab = fetch(i);
          if (slab.bytes.size() != plan.rows(i) * row_bytes)
            throw StreamError(std::string(who) +
                              ": slab size does not match the row table");
          const std::size_t from = std::max(plan.row_begin(i), row_begin);
          const std::size_t to = std::min(plan.row_begin(i + 1), row_end);
          std::memcpy(
              reinterpret_cast<std::uint8_t*>(out.data()) +
                  (from - row_begin) * row_bytes,
              slab.bytes.data() + (from - plan.row_begin(i)) * row_bytes,
              (to - from) * row_bytes);
        }
      },
      opts);
  return out;
}

template std::vector<float> decode<float>(Scheme,
                                          std::span<const std::uint8_t>, Dims);
template std::vector<double> decode<double>(Scheme,
                                            std::span<const std::uint8_t>,
                                            Dims);
template std::vector<float> read_rows<float>(
    const Plan&, Dims, std::size_t, std::size_t, std::size_t,
    const std::function<Decoded(std::size_t)>&, const char*, Dims*);
template std::vector<double> read_rows<double>(
    const Plan&, Dims, std::size_t, std::size_t, std::size_t,
    const std::function<Decoded(std::size_t)>&, const char*, Dims*);

}  // namespace slab
}  // namespace transpwr
