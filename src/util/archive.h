// Byte-oriented serialization used for virtual-processor contexts and
// messages. Contexts must round-trip exactly: the EM engine destroys the
// in-memory state of a virtual processor after each compound superstep and
// rebuilds it from disk, so every Program state type provides save()/load()
// in terms of these archives.
//
// The format is a flat little-endian byte stream with no framing; writer and
// reader must agree on the sequence of fields (they are the same class).
// Trivially-copyable types and vectors of them take the memcpy fast path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace emcgm {

/// Append-only output archive backed by a growable byte buffer.
class WriteArchive {
 public:
  WriteArchive() = default;

  void write_raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put(const T& value) {
    write_raw(&value, sizeof(T));
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_span(std::span<const T> items) {
    put<std::uint64_t>(items.size());
    write_raw(items.data(), items.size_bytes());
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  void put_vec(const std::vector<T>& v) {
    put_span(std::span<const T>(v));
  }

  void put_string(const std::string& s) {
    put<std::uint64_t>(s.size());
    write_raw(s.data(), s.size());
  }

  void put_bytes(std::span<const std::byte> bytes) {
    put<std::uint64_t>(bytes.size());
    write_raw(bytes.data(), bytes.size());
  }

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::byte>& buffer() const { return buf_; }

  /// Relinquish the underlying buffer (archive becomes empty).
  std::vector<std::byte> take() { return std::move(buf_); }

 private:
  std::vector<std::byte> buf_;
};

/// Sequential input archive over a borrowed byte range.
class ReadArchive {
 public:
  explicit ReadArchive(std::span<const std::byte> data) : data_(data) {}

  void read_raw(void* out, std::size_t n) {
    EMCGM_CHECK_MSG(pos_ + n <= data_.size(),
                    "archive underrun: need " << n << " at " << pos_
                                              << " of " << data_.size());
    // memcpy's pointers must be non-null even for n == 0, and an empty
    // vector's data() may be null.
    if (n != 0) std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  T get() {
    T value;
    read_raw(&value, sizeof(T));
    return value;
  }

  template <typename T>
    requires std::is_trivially_copyable_v<T>
  std::vector<T> get_vec() {
    const auto n = get<std::uint64_t>();
    std::vector<T> v(static_cast<std::size_t>(n));
    read_raw(v.data(), v.size() * sizeof(T));
    return v;
  }

  std::string get_string() {
    const auto n = get<std::uint64_t>();
    std::string s(static_cast<std::size_t>(n), '\0');
    read_raw(s.data(), s.size());
    return s;
  }

  std::vector<std::byte> get_bytes() { return get_vec<std::byte>(); }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Reinterpret a vector of trivially-copyable items as raw bytes.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::span<const std::byte> as_bytes_span(const std::vector<T>& v) {
  return std::as_bytes(std::span<const T>(v));
}

/// Decode a raw byte range as a vector of items; size must divide evenly.
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<T> bytes_to_vec(std::span<const std::byte> bytes) {
  EMCGM_CHECK_MSG(bytes.size() % sizeof(T) == 0,
                  "byte range of " << bytes.size()
                                   << " not a multiple of item size "
                                   << sizeof(T));
  std::vector<T> v(bytes.size() / sizeof(T));
  if (!v.empty()) std::memcpy(v.data(), bytes.data(), bytes.size());
  return v;
}

/// Encode a vector of items as an owned byte buffer (no length header).
template <typename T>
  requires std::is_trivially_copyable_v<T>
std::vector<std::byte> vec_to_bytes(const std::vector<T>& v) {
  auto b = as_bytes_span(v);
  return std::vector<std::byte>(b.begin(), b.end());
}

}  // namespace emcgm
