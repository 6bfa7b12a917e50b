// Numeric text I/O shared by the instance format (core/instance), the
// JSONL wire (engine/wire), the benchmark reports (util/bench_report)
// and the metric dumps (util/obs), on <charconv>: no locale, no stream,
// no allocation per token. Numbers are written in their shortest
// round-trip form, so equal text means equal bits; the accepted input
// grammar is documented at Instance::serialize.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace mmlp {

/// Parse the number at the front of `text` as a T (an integer type or
/// double) and drop the characters read from `text`: an optional '+',
/// then std::from_chars's decimal form. nullopt (and `text` untouched)
/// unless a finite number in T's range starts there: 1e400 and 1e-400
/// are out of range; inf, nan and an empty front are malformed.
template <typename T>
std::optional<T> consume_number(std::string_view& text) {
  const bool plus = text.starts_with('+') && !text.starts_with("+-");
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data() + (plus ? 1 : 0),
                                         text.data() + text.size(), value);
  bool ok = ec == std::errc{};
  if constexpr (std::is_floating_point_v<T>) {
    ok = ok && std::isfinite(value);
  }
  if (!ok) {
    return std::nullopt;
  }
  text.remove_prefix(static_cast<std::size_t>(ptr - text.data()));
  return value;
}

/// Parse one whole token (consume_number, with nothing left over: hex
/// and trailing characters such as "1.0x" or "1,5" are malformed).
template <typename T>
std::optional<T> parse_number(std::string_view token) {
  const std::optional<T> value = consume_number<T>(token);
  return token.empty() ? value : std::nullopt;
}

/// Append `value` in its shortest round-trip form. Throws CheckError on
/// inf / nan, which JSON cannot carry.
void append_json_number(std::string& out, double value);

/// Append `text` as a quoted JSON string (see json_escape).
void append_json_string(std::string& out, std::string_view text);

/// A string that append_text writes as a quoted, escaped JSON string.
struct Quoted {
  std::string_view text;
};

/// Append each part in turn: text verbatim (it carries the keys and the
/// punctuation), Quoted text via append_json_string, bool as true /
/// false, integers in decimal and doubles via append_json_number.
template <typename... Parts>
void append_text(std::string& out, const Parts&... parts) {
  const auto append_part = [&out](const auto& part) {
    using T = std::decay_t<decltype(part)>;
    if constexpr (std::is_same_v<T, Quoted>) {
      append_json_string(out, part.text);
    } else if constexpr (std::is_same_v<T, bool>) {
      out += part ? "true" : "false";
    } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, char>) {
      char buffer[24];
      out.append(buffer, std::to_chars(buffer, buffer + 24, part).ptr);
    } else if constexpr (std::is_floating_point_v<T>) {
      append_json_number(out, part);
    } else {
      out += part;
    }
  };
  (append_part(parts), ...);
}

/// Append `{"key": value, ...}` over the (key, value) pairs of `map`;
/// `append_value(value)` writes each value (by default append_text).
template <typename Map, typename AppendValue>
void append_json_object(std::string& out, const Map& map,
                        const AppendValue& append_value) {
  const char* separator = "{";
  for (const auto& [key, value] : map) {
    append_text(out, separator, Quoted{key}, ": ");
    append_value(value);
    separator = ", ";
  }
  out += map.empty() ? "{}" : "}";
}
template <typename Map>
void append_json_object(std::string& out, const Map& map) {
  append_json_object(out, map,
                     [&out](const auto& value) { append_text(out, value); });
}

/// JSON string escaping (quotes, backslashes, and control characters —
/// a CheckError message with a tab in it must still serialise to a
/// parseable line). Returns the escaped body without surrounding quotes.
std::string json_escape(std::string_view text);

}  // namespace mmlp
