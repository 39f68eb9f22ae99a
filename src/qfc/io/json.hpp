#pragma once

/// \file json.hpp
/// Dependency-free JSON for the config/serialization layer: a value type
/// (`Json`), a strict parser with line/column errors, a deterministic
/// writer, and a path-carrying accessor (`JsonView`) that turns config
/// reading mistakes into errors naming the exact JSON path
/// ("$.sweeps[1].axes[0].param: expected string, got number").
///
/// Determinism contract (the sweep runner's merged-report guarantee rides
/// on it): objects preserve insertion order, numbers print via
/// std::to_chars shortest round-trip form, and dump() emits no timestamps
/// or addresses — the same Json value always serializes to the same bytes,
/// and parse(dump(v)) == v exactly (integers stay integers, doubles stay
/// bit-identical).
///
/// Layout: a Json is one std::variant over the seven value kinds, in the
/// order of `Json::Type`, so `type()` is the variant index and a node is
/// 40 bytes (a std::string plus the index; an object member is 72). A
/// sweep report is hundreds of thousands of nodes, so this size is its
/// memory; the static_assert below keeps it from growing back.
///
/// Nesting cap: parse() rejects input nested deeper than
/// `Json::kMaxDepth` arrays/objects with a line/column JsonError, so
/// hostile input cannot overflow the parser's stack. Every parsed value
/// is therefore at most that deep, which also bounds the recursion of
/// dump() and of the destructor on it.
///
/// Unchecked readers (`bool_value()`, `int_value()`, `number_value()`,
/// `string_value()`, `array_items()`, `object_members()`) never fail: on
/// a value of another type they return false / 0 / an empty string,
/// array or object. JsonView is the checked, path-reporting way in.

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace qfc::io {

/// Parse or access error. `path` is "$"-rooted for accessor errors and
/// "line L, column C" style for parse errors; what() carries everything.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& message) : std::runtime_error(message) {}
};

class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  using Array = std::vector<Json>;
  /// Objects are insertion-ordered member lists (never re-sorted), so a
  /// config round-trips in author order and reports serialize in the
  /// order the code built them. Lookup is linear — fine for the small
  /// objects configs and reports are made of.
  using Member = std::pair<std::string, Json>;
  using Object = std::vector<Member>;

  /// Deepest array/object nesting parse() accepts (a fixed limit, not a
  /// setting): the top-level container is level 1.
  static constexpr int kMaxDepth = 512;

  Json() noexcept = default;
  Json(std::nullptr_t) noexcept {}
  Json(bool b) noexcept : value_(std::in_place_type<bool>, b) {}
  Json(int v) noexcept : value_(std::in_place_type<std::int64_t>, v) {}
  Json(long v) noexcept : value_(std::in_place_type<std::int64_t>, v) {}
  Json(long long v) noexcept : value_(std::in_place_type<std::int64_t>, v) {}
  Json(unsigned v) noexcept
      : value_(std::in_place_type<std::int64_t>, static_cast<std::int64_t>(v)) {}
  Json(unsigned long v) : Json(static_cast<unsigned long long>(v)) {}
  /// Throws JsonError above INT64_MAX (JSON has no unsigned channel that
  /// round-trips through the Int representation).
  Json(unsigned long long v);
  Json(double v) noexcept : value_(std::in_place_type<double>, v) {}
  Json(const char* s) : value_(std::in_place_type<std::string>, s) {}
  Json(std::string s) : value_(std::in_place_type<std::string>, std::move(s)) {}
  Json(std::string_view s) : value_(std::in_place_type<std::string>, s) {}

  static Json make_array() { Json j; j.value_.emplace<Array>(); return j; }
  static Json make_object() { Json j; j.value_.emplace<Object>(); return j; }
  /// Convenience: Json::make_array({Json(1), Json(2)}).
  static Json make_array(Array elements);
  /// Takes the members as given: the caller guarantees the keys are unique.
  static Json make_object(Object members);

  Type type() const noexcept { return static_cast<Type>(value_.index()); }
  bool is_null() const noexcept { return type() == Type::Null; }
  bool is_bool() const noexcept { return type() == Type::Bool; }
  /// Int and Double are both "number" to readers; the split exists so
  /// integer literals (seeds, counts) round-trip without a float detour.
  bool is_number() const noexcept { return is_int() || type() == Type::Double; }
  bool is_int() const noexcept { return type() == Type::Int; }
  bool is_string() const noexcept { return type() == Type::String; }
  bool is_array() const noexcept { return type() == Type::Array; }
  bool is_object() const noexcept { return type() == Type::Object; }

  // ---- unchecked readers (meant for after the matching is_*() check; on
  //      any other type they return the zero or empty value, see above)
  bool bool_value() const noexcept {
    const bool* b = std::get_if<bool>(&value_);
    return b != nullptr && *b;
  }
  std::int64_t int_value() const noexcept {
    const std::int64_t* i = std::get_if<std::int64_t>(&value_);
    return i != nullptr ? *i : 0;
  }
  double number_value() const noexcept {
    if (const std::int64_t* i = std::get_if<std::int64_t>(&value_))
      return static_cast<double>(*i);
    const double* d = std::get_if<double>(&value_);
    return d != nullptr ? *d : 0.0;
  }
  const std::string& string_value() const noexcept {
    const std::string* s = std::get_if<std::string>(&value_);
    return s != nullptr ? *s : empty_string();
  }
  const Array& array_items() const noexcept {
    const Array* a = std::get_if<Array>(&value_);
    return a != nullptr ? *a : empty_array();
  }
  const Object& object_members() const noexcept {
    const Object* o = std::get_if<Object>(&value_);
    return o != nullptr ? *o : empty_object();
  }

  // ---- builders
  /// Appends to an array (null coerces to an empty array first).
  void push_back(Json v);
  /// Sets object member `key` (null coerces to an empty object first);
  /// replaces in place if the key exists, appends otherwise.
  void set(std::string key, Json v);
  /// Object member lookup; nullptr when absent or not an object.
  const Json* find(std::string_view key) const noexcept;

  /// Deep structural equality. Int(3) != Double(3.0) — the writer would
  /// emit different bytes for them, and byte equality is the contract the
  /// sweep gate checks, so value equality matches it.
  friend bool operator==(const Json& a, const Json& b);
  friend bool operator!=(const Json& a, const Json& b) { return !(a == b); }

  /// Strict RFC 8259 parse (UTF-8 passthrough for strings). Throws
  /// JsonError with "line L, column C" context on malformed input,
  /// including trailing garbage after the top-level value.
  static Json parse(std::string_view text);

  /// Serialize. indent < 0: compact one-line form; indent >= 0: pretty
  /// form with that many spaces per level. Numbers use std::to_chars
  /// shortest round-trip formatting; non-finite doubles throw JsonError
  /// (JSON has no NaN/Inf literal) unless the caller sanitized them.
  std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  static const std::string& empty_string() noexcept;
  static const Array& empty_array() noexcept;
  static const Object& empty_object() noexcept;

  // Alternatives in `Type` order: type() is the index.
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array, Object>
      value_;
};

static_assert(sizeof(Json) <= 40, "a Json node is one variant: a std::string plus its index");
static_assert(sizeof(Json::Member) <= 72, "an object member is a key plus one Json node");

/// Non-throwing NaN/Inf-safe number: non-finite doubles serialize as
/// strings ("nan", "inf", "-inf") so reports can carry e.g. the NaN
/// worst_qber of an empty network without killing the writer. Readers
/// treat these as data, not numbers; the sweep report uses this for every
/// measured floating-point field.
Json number_or_string(double v);

/// Checked, path-carrying accessor over a parsed Json tree. A JsonView is
/// a (value, "$.path") pair; every typed getter throws JsonError naming
/// that path on a type mismatch, and child views extend the path, so a
/// config error deep in a sweep file reads
/// "$.sweeps[2].axes[0].linspace.count: expected integer, got string".
class JsonView {
 public:
  JsonView(const Json& value, std::string path = "$")
      : value_(&value), path_(std::move(path)) {}

  const Json& value() const noexcept { return *value_; }
  const std::string& path() const noexcept { return path_; }

  // ---- typed leaf getters
  bool as_bool() const;
  /// Any number (Int or Double), as double.
  double as_number() const;
  /// Int only; a Double (even 3.0) is a type error — integer knobs like
  /// seeds and counts must be written as integers.
  std::int64_t as_int() const;
  /// as_int() plus a [lo, hi] range check ("expected integer in [1, 64]").
  std::int64_t as_int_in(std::int64_t lo, std::int64_t hi) const;
  const std::string& as_string() const;

  // ---- containers
  bool is_array() const noexcept { return value_->is_array(); }
  bool is_object() const noexcept { return value_->is_object(); }
  /// Throws unless this value is an array / object.
  std::size_t array_size() const;
  JsonView at(std::size_t index) const;          ///< array element, path += [i]
  bool has(std::string_view key) const;          ///< object member present?
  JsonView at(std::string_view key) const;       ///< required member, path += .key
  /// Optional member: nullopt-style — returns nullptr when absent.
  const Json* find(std::string_view key) const;

  /// Unknown-key guard: throws "$.path: unknown key 'foo' (expected one
  /// of: a, b, c)" if the object holds any member not in `allowed`.
  /// The error is the single most common config typo, so every config
  /// reader in qfc::sweep calls this before touching members.
  void require_keys_among(std::initializer_list<std::string_view> allowed) const;

  [[noreturn]] void fail(const std::string& message) const;

 private:
  const Json* value_;
  std::string path_;
};

}  // namespace qfc::io
