#ifndef QANAAT_COMMON_SERDE_H_
#define QANAAT_COMMON_SERDE_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace qanaat {

/// Little-endian binary encoder. Every wire type is serialized through it
/// (see Writer below), so digests and signatures cover one canonical byte
/// representation.
class Encoder {
 public:
  // One up-front reservation covers almost every message/digest encode;
  // byte-wise growth from an empty vector was a measurable share of the
  // sim hot path (several reallocations per encoded message).
  Encoder() { buf_.reserve(128); }

  /// Any unsigned integer, little-endian at its own width.
  template <typename T>
  void PutLE(T v) {
    for (size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  }
  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v) { PutLE(v); }
  void PutU32(uint32_t v) { PutLE(v); }
  void PutU64(uint64_t v) { PutLE(v); }
  void PutBool(bool v) { PutU8(v ? 1 : 0); }
  void PutRaw(const void* data, size_t n) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() && { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::vector<uint8_t> buf_;
};

/// Little-endian binary decoder over a borrowed buffer. Methods return
/// false on underflow; callers surface Status::Corruption.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size)
      : data_(data), size_(size), pos_(0) {}
  explicit Decoder(const std::vector<uint8_t>& buf)
      : Decoder(buf.data(), buf.size()) {}

  /// Any unsigned integer, little-endian at its own width.
  template <typename T>
  bool GetLE(T* v) {
    if (pos_ + sizeof(T) > size_) return false;
    T out = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      out |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    *v = out;
    return true;
  }
  bool GetU8(uint8_t* v) { return GetLE(v); }
  bool GetU16(uint16_t* v) { return GetLE(v); }
  bool GetU32(uint32_t* v) { return GetLE(v); }
  bool GetU64(uint64_t* v) { return GetLE(v); }
  bool GetBool(bool* v) {
    uint8_t b;
    if (!GetU8(&b)) return false;
    *v = (b != 0);
    return true;
  }
  /// Copies exactly n raw bytes; false on underflow.
  bool GetRaw(void* out, size_t n) {
    if (pos_ + n > size_) return false;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  size_t remaining() const { return size_ - pos_; }
  bool Done() const { return pos_ == size_; }
  /// Current read position (for carving bounded sub-decoders).
  const uint8_t* cursor() const { return data_ + pos_; }
  bool Skip(size_t n) {
    if (pos_ + n > size_) return false;
    pos_ += n;
    return true;
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_;
};

/// A sink that keeps only the count of what an Encoder would append: a
/// Writer over it measures an encoding without building it.
class ByteCounter {
 public:
  template <typename T>
  void PutLE(T) { n_ += sizeof(T); }
  void PutRaw(const void*, size_t n) { n_ += n; }

  size_t size() const { return n_; }

 private:
  size_t n_ = 0;
};

// Every wire type declares its layout once, as a field list that two
// walkers run:
//
//   template <class IO, class Self>
//   static bool Fields(IO& io, Self& m) {
//     return io(m.view) && io(m.slot) && io.List16(m.proofs) && ...;
//   }
//
// A Writer appends the fields to an Encoder (Self is const), or counts
// them into a ByteCounter; a Reader fills them from a Decoder and fails
// on the first malformed one. The walker rules are the whole codec:
//  * integers, bools and enums travel little-endian at their own width
//    (so an int cluster id travels as u32);
//  * a std::array<uint8_t, N> (Sha256Digest) travels as its raw bytes;
//  * a double travels as its IEEE-754 bits, so a round trip is exact;
//  * a std::pair travels field by field;
//  * a shared_ptr travels as a presence flag, then its pointee;
//  * a vector travels behind an explicit u16 or u32 count (List16 /
//    List32). A count larger than the bytes left fails the decode: every
//    element takes at least one byte, so it is corruption, and it must
//    not reach an allocation;
//  * io.Check(ok) states a decode-time invariant; writing ignores it.

/// Appends a value's canonical bytes to a Sink (an Encoder, or a
/// ByteCounter) by walking its field list.
template <class Sink>
class Writer {
 public:
  /// Lets a field list act after a decode only (a Block re-seals).
  static constexpr bool kDecoding = false;

  explicit Writer(Sink* enc) : enc_(enc) {}

  template <class T>
  bool operator()(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      enc_->PutLE(static_cast<uint8_t>(v));
    } else if constexpr (std::is_enum_v<T>) {
      (*this)(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T>) {
      enc_->PutLE(static_cast<std::make_unsigned_t<T>>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      enc_->PutLE(bits);
    } else {
      return T::Fields(*this, v);
    }
    return true;
  }
  template <size_t N>
  bool operator()(const std::array<uint8_t, N>& bytes) {
    enc_->PutRaw(bytes.data(), N);
    return true;
  }
  template <class A, class B>
  bool operator()(const std::pair<A, B>& p) {
    return (*this)(p.first) && (*this)(p.second);
  }
  template <class T>
  bool operator()(const std::shared_ptr<T>& p) {
    (*this)(p != nullptr);
    return p == nullptr || (*this)(*p);
  }

  template <class T>
  bool List16(const std::vector<T>& v) {
    return List<uint16_t>(v);
  }
  template <class T>
  bool List32(const std::vector<T>& v) {
    return List<uint32_t>(v);
  }

  bool Check(bool /*ok*/) { return true; }

 private:
  template <class N, class T>
  bool List(const std::vector<T>& v) {
    enc_->PutLE(static_cast<N>(v.size()));
    for (const T& x : v) (*this)(x);
    return true;
  }

  Sink* enc_;
};

/// Fills a value from a Decoder by walking its field list. False on
/// underflow, on a count past the bytes left, or on a failed Check; the
/// value is then partially filled and must be discarded.
class Reader {
 public:
  static constexpr bool kDecoding = true;

  explicit Reader(Decoder* dec) : dec_(dec) {}

  template <class T>
  bool operator()(T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return dec_->GetBool(&v);
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u = 0;
      if (!(*this)(u)) return false;
      v = static_cast<T>(u);
      return true;
    } else if constexpr (std::is_integral_v<T>) {
      std::make_unsigned_t<T> u = 0;
      if (!dec_->GetLE(&u)) return false;
      v = static_cast<T>(u);
      return true;
    } else if constexpr (std::is_same_v<T, double>) {
      uint64_t bits = 0;
      if (!dec_->GetU64(&bits)) return false;
      std::memcpy(&v, &bits, sizeof(bits));
      return true;
    } else {
      return T::Fields(*this, v);
    }
  }
  template <size_t N>
  bool operator()(std::array<uint8_t, N>& bytes) {
    return dec_->GetRaw(bytes.data(), N);
  }
  template <class A, class B>
  bool operator()(std::pair<A, B>& p) {
    return (*this)(p.first) && (*this)(p.second);
  }
  template <class T>
  bool operator()(std::shared_ptr<const T>& p) {
    bool present = false;
    if (!dec_->GetBool(&present)) return false;
    p.reset();
    if (!present) return true;
    auto fresh = std::make_shared<T>();
    if (!(*this)(*fresh)) return false;
    p = std::move(fresh);
    return true;
  }

  template <class T>
  bool List16(std::vector<T>& v) {
    return List<uint16_t>(v);
  }
  template <class T>
  bool List32(std::vector<T>& v) {
    return List<uint32_t>(v);
  }

  bool Check(bool ok) { return ok; }

 private:
  template <class N, class T>
  bool List(std::vector<T>& v) {
    N n = 0;
    if (!dec_->GetLE(&n) || n > dec_->remaining()) return false;
    v.resize(n);
    for (T& x : v) {
      if (!(*this)(x)) return false;
    }
    return true;
  }

  Decoder* dec_;
};

/// Appends the canonical encoding of `v` (any type with a field list).
template <class T>
void Encode(const T& v, Encoder* enc) {
  Writer{enc}(v);
}

/// The length of `v`'s canonical encoding, counted without building it.
template <class T>
size_t EncodedSize(const T& v) {
  ByteCounter counter;
  Writer{&counter}(v);
  return counter.size();
}

/// Decodes `v` from `dec`; false on any malformation.
template <class T>
bool Decode(Decoder* dec, T* v) {
  return Reader{dec}(*v);
}

}  // namespace qanaat

#endif  // QANAAT_COMMON_SERDE_H_
