#include "mmlp/util/text.hpp"

#include "mmlp/util/check.hpp"

namespace mmlp {

void append_json_number(std::string& out, double value) {
  MMLP_CHECK_MSG(std::isfinite(value),
                 "cannot encode non-finite number " << value << " as JSON");
  char buffer[32];  // the longest shortest form is 24 characters
  out.append(buffer, std::to_chars(buffer, buffer + 32, value).ptr);
}

void append_json_string(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      // JSON strings may not contain raw control characters.
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xf];
    } else {
      out += c;
    }
  }
  out += '"';
}

std::string json_escape(std::string_view text) {
  std::string quoted;
  append_json_string(quoted, text);
  return quoted.substr(1, quoted.size() - 2);
}

}  // namespace mmlp
