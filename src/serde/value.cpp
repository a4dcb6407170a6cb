#include "serde/value.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>

namespace sci {

namespace {

constexpr unsigned kMaxDecodeDepth = 64;

Error wrong_kind(const char* wanted, Value::Kind got) {
  return make_error(ErrorCode::kTypeMismatch,
                    std::string("value is not a ") + wanted + " (kind=" +
                        std::to_string(static_cast<int>(got)) + ")");
}

Expected<Value> decode_at_depth(serde::Reader& r, unsigned depth);

Expected<Value> decode_container(serde::Reader& r, Value::Kind kind,
                                 unsigned depth) {
  if (depth >= kMaxDecodeDepth)
    return make_error(ErrorCode::kParseError, "value nesting too deep");
  SCI_TRY_ASSIGN(count, r.varint());
  if (count > r.remaining())
    return make_error(ErrorCode::kParseError, "container count exceeds frame");
  if (kind == Value::Kind::kList) {
    ValueList list;
    list.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      SCI_TRY_ASSIGN(item, decode_at_depth(r, depth + 1));
      list.push_back(std::move(item));
    }
    return Value(std::move(list));
  }
  ValueMap map;
  for (std::uint64_t i = 0; i < count; ++i) {
    SCI_TRY_ASSIGN(key, r.string());
    SCI_TRY_ASSIGN(item, decode_at_depth(r, depth + 1));
    map.emplace(std::move(key), std::move(item));
  }
  return Value(std::move(map));
}

Expected<Value> decode_at_depth(serde::Reader& r, unsigned depth) {
  SCI_TRY_ASSIGN(tag, r.u8());
  switch (static_cast<Value::Kind>(tag)) {
    case Value::Kind::kNull:
      return Value();
    case Value::Kind::kBool: {
      SCI_TRY_ASSIGN(b, r.boolean());
      return Value(b);
    }
    case Value::Kind::kInt: {
      SCI_TRY_ASSIGN(i, r.svarint());
      return Value(i);
    }
    case Value::Kind::kDouble: {
      SCI_TRY_ASSIGN(d, r.f64());
      return Value(d);
    }
    case Value::Kind::kString: {
      SCI_TRY_ASSIGN(s, r.string());
      return Value(std::move(s));
    }
    case Value::Kind::kGuid: {
      SCI_TRY_ASSIGN(g, r.guid());
      return Value(g);
    }
    case Value::Kind::kList:
    case Value::Kind::kMap:
      return decode_container(r, static_cast<Value::Kind>(tag), depth);
  }
  return make_error(ErrorCode::kParseError,
                    "unknown value tag " + std::to_string(tag));
}

void append_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
}

}  // namespace

Expected<bool> Value::as_bool() const {
  if (kind() != Kind::kBool) return wrong_kind("bool", kind());
  return get_bool();
}

Expected<std::int64_t> Value::as_int() const {
  if (kind() != Kind::kInt) return wrong_kind("int", kind());
  return get_int();
}

Expected<double> Value::as_double() const {
  if (kind() == Kind::kInt) return static_cast<double>(get_int());
  if (kind() != Kind::kDouble) return wrong_kind("double", kind());
  return get_double();
}

Expected<std::string> Value::as_string() const {
  if (kind() != Kind::kString) return wrong_kind("string", kind());
  return get_string();
}

Expected<Guid> Value::as_guid() const {
  if (kind() != Kind::kGuid) return wrong_kind("guid", kind());
  return get_guid();
}

const Value& Value::at(std::string_view key) const {
  static const Value kNull;
  if (kind() != Kind::kMap) return kNull;
  const auto& map = get_map();
  const auto it = map.find(key);
  return it == map.end() ? kNull : it->second;
}

bool Value::contains(std::string_view key) const {
  return kind() == Kind::kMap && get_map().find(key) != get_map().end();
}

Value& Value::operator[](const std::string& key) {
  if (kind() != Kind::kMap) data_ = ValueMap{};
  return get_map()[key];
}

double Value::number_or(double fallback) const {
  if (kind() == Kind::kInt) return static_cast<double>(get_int());
  if (kind() == Kind::kDouble) return get_double();
  return fallback;
}

std::string Value::string_or(std::string fallback) const {
  if (kind() == Kind::kString) return get_string();
  return fallback;
}

void Value::encode(serde::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind()));
  switch (kind()) {
    case Kind::kNull:
      break;
    case Kind::kBool:
      w.boolean(get_bool());
      break;
    case Kind::kInt:
      w.svarint(get_int());
      break;
    case Kind::kDouble:
      w.f64(get_double());
      break;
    case Kind::kString:
      w.string(get_string());
      break;
    case Kind::kGuid:
      w.guid(get_guid());
      break;
    case Kind::kList: {
      const auto& list = get_list();
      w.varint(list.size());
      for (const auto& item : list) item.encode(w);
      break;
    }
    case Kind::kMap: {
      const auto& map = get_map();
      w.varint(map.size());
      for (const auto& [key, item] : map) {
        w.string(key);
        item.encode(w);
      }
      break;
    }
  }
}

Expected<Value> Value::decode(serde::Reader& r) {
  return decode_at_depth(r, 0);
}

namespace serde {

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_json(std::string& out, const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      out += "null";
      return;
    case Value::Kind::kBool:
      out += value.get_bool() ? "true" : "false";
      return;
    case Value::Kind::kInt:
      out += std::to_string(value.get_int());
      return;
    case Value::Kind::kDouble: {
      const double d = value.get_double();
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no Inf/NaN
        return;
      }
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", d);
      out += buf;
      return;
    }
    case Value::Kind::kString:
      append_json_string(out, value.get_string());
      return;
    case Value::Kind::kGuid:
      append_json_string(out, value.get_guid().to_string());
      return;
    case Value::Kind::kList: {
      out.push_back('[');
      const auto& list = value.get_list();
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (i > 0) out.push_back(',');
        append_json(out, list[i]);
      }
      out.push_back(']');
      return;
    }
    case Value::Kind::kMap: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, item] : value.get_map()) {
        if (!first) out.push_back(',');
        first = false;
        append_json_string(out, key);
        out.push_back(':');
        append_json(out, item);
      }
      out.push_back('}');
      return;
    }
  }
  SCI_UNREACHABLE();
}

}  // namespace

std::string to_json(const Value& value) {
  std::string out;
  append_json(out, value);
  return out;
}

}  // namespace serde

std::string Value::to_string() const {
  switch (kind()) {
    case Kind::kNull:
      return "null";
    case Kind::kBool:
      return get_bool() ? "true" : "false";
    case Kind::kInt:
      return std::to_string(get_int());
    case Kind::kDouble: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", get_double());
      return buf;
    }
    case Kind::kString: {
      std::string out;
      append_escaped(out, get_string());
      return out;
    }
    case Kind::kGuid:
      return "guid:" + get_guid().short_string();
    case Kind::kList: {
      std::string out = "[";
      const auto& list = get_list();
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (i > 0) out += ",";
        out += list[i].to_string();
      }
      return out + "]";
    }
    case Kind::kMap: {
      std::string out = "{";
      bool first = true;
      for (const auto& [key, item] : get_map()) {
        if (!first) out += ",";
        first = false;
        append_escaped(out, key);
        out += ":";
        out += item.to_string();
      }
      return out + "}";
    }
  }
  SCI_UNREACHABLE();
}

}  // namespace sci
