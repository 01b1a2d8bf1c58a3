#include "common/decode_guard.h"

#include <atomic>
#include <limits>
#include <string>

#include "common/env.h"
#include "common/error.h"
#include "obs/obs.h"

namespace transpwr {
namespace {

std::size_t default_limit() {
  if (auto v = env::checked_u64("TRANSPWR_MAX_DECODE_BYTES", {}))
    return static_cast<std::size_t>(*v);
  return std::size_t{1} << 34;  // 16 GiB
}

std::atomic<std::size_t>& limit_slot() {
  static std::atomic<std::size_t> limit{0};  // 0 => default
  return limit;
}

}  // namespace

std::size_t max_decode_bytes() {
  std::size_t v = limit_slot().load(std::memory_order_relaxed);
  if (v == 0) {
    static const std::size_t def = default_limit();
    return def;
  }
  return v;
}

void set_max_decode_bytes(std::size_t bytes) {
  limit_slot().store(bytes, std::memory_order_relaxed);
}

ScopedDecodeLimit::ScopedDecodeLimit(std::size_t bytes)
    : prev_(limit_slot().load(std::memory_order_relaxed)) {
  set_max_decode_bytes(bytes);
}

ScopedDecodeLimit::~ScopedDecodeLimit() { set_max_decode_bytes(prev_); }

void check_decode_alloc(std::size_t count, std::size_t elem_size,
                        const char* what) {
  const std::size_t limit = max_decode_bytes();
  if (elem_size != 0 &&
      (count > std::numeric_limits<std::size_t>::max() / elem_size ||
       count * elem_size > limit)) {
    obs::counter_add("decode_guard.rejections");
    throw StreamError(std::string(what) + ": declared size " +
                      std::to_string(count) + " x " +
                      std::to_string(elem_size) +
                      " bytes exceeds decode limit (" + std::to_string(limit) +
                      ")");
  }
}

Dims read_dims(int nd, ByteReader& in, const char* what) {
  Dims dims;
  dims.nd = nd;
  for (auto& d : dims.d) d = static_cast<std::size_t>(in.get<std::uint64_t>());
  if (nd < 1 || nd > 3)
    throw StreamError(std::string(what) +
                      ": dimension count must be 1, 2 or 3");
  for (int i = 0; i < nd; ++i)
    if (dims[i] == 0)
      throw StreamError(std::string(what) + ": zero-sized dimension");
  checked_count(dims, what);
  return dims;
}

std::size_t checked_count(const Dims& dims, const char* what) {
  dims.validate();
  std::size_t n = 1;
  for (int i = 0; i < dims.nd; ++i) {
    std::size_t di = dims[i];
    if (di != 0 && n > std::numeric_limits<std::size_t>::max() / di) {
      obs::counter_add("decode_guard.rejections");
      throw StreamError(std::string(what) +
                        ": element count overflows size_t (dims " +
                        dims.to_string() + ")");
    }
    n *= di;
  }
  return n;
}

}  // namespace transpwr
