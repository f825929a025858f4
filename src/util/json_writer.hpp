#pragma once

#include <string>
#include <utility>
#include <vector>

namespace reasched::util {

/// Append-only JSON emitter for result files. Supports objects, arrays,
/// strings, numbers and booleans; guarantees syntactically valid output as
/// long as begin/end calls are balanced (checked with asserts in debug).
class JsonWriter {
 public:
  JsonWriter();

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key inside an object; must be followed by a value or container.
  JsonWriter& key(const std::string& k);

  JsonWriter& value(const std::string& v);
  JsonWriter& value(const char* v);
  JsonWriter& value(double v);
  /// Round-trip-exact double (format_double_exact): use for state that must
  /// survive serialize -> parse bit-identically (service snapshots, decision
  /// traces). Plain value(double) stays %.10g - compact, human-oriented,
  /// lossy.
  JsonWriter& value_exact(double v);
  JsonWriter& value(long long v);
  JsonWriter& value(int v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(std::size_t v) { return value(static_cast<long long>(v)); }
  JsonWriter& value(bool v);
  JsonWriter& null();

  /// Shorthand: key + value.
  template <typename T>
  JsonWriter& kv(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }

  /// Shorthand: key + round-trip-exact double.
  JsonWriter& kv_exact(const std::string& k, double v) {
    key(k);
    return value_exact(v);
  }

  const std::string& str() const& { return out_; }
  /// Hands the document over without copying: `return std::move(w).str();`.
  std::string str() && { return std::move(out_); }
  void save(const std::string& path) const;

  static std::string escape(const std::string& s);

 private:
  void before_value();
  std::string out_;
  std::vector<bool> needs_comma_;  // stack; one entry per open container
  bool after_key_ = false;
};

/// Shortest decimal string that strtod parses back to exactly `v` (tries
/// %.15g, %.16g, %.17g; 17 significant digits always round-trip an IEEE-754
/// double). Finite inputs only - callers serializing simulation state never
/// hold NaN/Inf, and the function throws std::invalid_argument on them
/// rather than silently emitting invalid JSON.
std::string format_double_exact(double v);

}  // namespace reasched::util
