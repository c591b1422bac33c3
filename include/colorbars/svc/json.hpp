#pragma once

// Minimal JSON document model for the trial-service wire protocol
// (colorbars::svc). Deliberately self-contained — the repo vendors no
// third-party JSON dependency — and tuned for the service's two hard
// requirements:
//
//  1. Exact numeric round-trips. Doubles are emitted with 17 significant
//     digits (enough to reconstruct any IEEE-754 binary64 bit pattern),
//     and 64-bit integers keep their raw token so seeds above 2^53
//     survive serialize -> parse -> serialize byte-identically. This is
//     what makes a distributed sweep byte-identical to the sequential
//     run: the worker decodes exactly the LinkConfig the server encoded.
//  2. Hostile-input safety. parse() is a bounded recursive-descent
//     parser with an explicit nesting cap; truncated, malformed or
//     adversarial input yields an error message, never UB (the protocol
//     fuzz tests feed it garbage under ASan/UBSan).
//
// Objects preserve insertion order, so dump() output is deterministic.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace colorbars::svc {

/// One JSON value (null / bool / number / string / array / object).
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;

  /// Factories (a default-constructed Json is null).
  static Json boolean(bool value);
  static Json number(double value);
  /// Parser-internal: a number carrying its exact source token (what
  /// dump() re-emits and as_int64()/as_uint64() re-parse).
  static Json raw_number(double value, std::string token);
  static Json integer(std::int64_t value);
  static Json unsigned_integer(std::uint64_t value);
  static Json string(std::string value);
  static Json array();
  static Json object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  [[nodiscard]] bool is_string() const noexcept { return kind_ == Kind::kString; }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept { return kind_ == Kind::kObject; }

  /// Scalar accessors. Wrong-kind access returns the fallback — callers
  /// that need strictness check kind() (the wire layer does).
  [[nodiscard]] bool as_bool(bool fallback = false) const noexcept;
  [[nodiscard]] double as_double(double fallback = 0.0) const noexcept;
  /// Integer accessors over the raw numeric token, so values above 2^53
  /// (RNG seeds) round-trip exactly. Empty unless the value is a number
  /// whose token is an integer literal (no fraction, no exponent) that
  /// fits the type: 1.5, 1e300 and, for as_uint64, -1 are all empty.
  [[nodiscard]] std::optional<std::int64_t> as_int64() const noexcept;
  [[nodiscard]] std::optional<std::uint64_t> as_uint64() const noexcept;
  [[nodiscard]] const std::string& as_string() const noexcept;

  // --- arrays ---
  [[nodiscard]] std::size_t size() const noexcept;
  /// Element access; out-of-range (or non-array) returns a shared null.
  [[nodiscard]] const Json& at(std::size_t index) const noexcept;
  /// Appends to an array (converts a null value into an array first).
  Json& push_back(Json value);

  // --- objects ---
  /// Member lookup; a missing key (or non-object) returns a shared null.
  [[nodiscard]] const Json& operator[](std::string_view key) const noexcept;
  [[nodiscard]] bool has(std::string_view key) const noexcept;
  /// Sets (or replaces) a member; converts a null value into an object.
  Json& set(std::string_view key, Json value);
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members()
      const noexcept;

  /// Serializes compactly (no whitespace). Deterministic: members emit
  /// in insertion order, doubles with round-trip precision.
  [[nodiscard]] std::string dump() const;

  /// Parses `text`. On failure returns a null Json and, when `error` is
  /// non-null, stores a one-line diagnostic. Trailing garbage after the
  /// document is an error. Nesting deeper than kMaxDepth is rejected.
  static Json parse(std::string_view text, std::string* error = nullptr);

  /// Parser nesting cap — deep enough for any svc message, shallow
  /// enough that hostile [[[[... input cannot exhaust the stack.
  static constexpr int kMaxDepth = 48;

 private:
  void append_to(std::string& out) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  /// Raw numeric token (as parsed, or as formatted by the factory) —
  /// the authoritative representation for dump() and the integer
  /// accessors.
  std::string number_token_;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace colorbars::svc
