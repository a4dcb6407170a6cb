#include "event/event.h"

namespace sci::event {

void Event::encode(serde::Writer& w) const {
  w.varint(sequence);
  w.string(type);
  w.guid(source);
  w.svarint(timestamp.micros());
  payload.encode(w);
}

Expected<Event> Event::decode(serde::Reader& r) {
  Event e;
  SCI_TRY_ASSIGN(sequence, r.varint());
  e.sequence = sequence;
  SCI_TRY_ASSIGN(type, r.string());
  e.type = std::move(type);
  SCI_TRY_ASSIGN(source, r.guid());
  e.source = source;
  SCI_TRY_ASSIGN(ts, r.svarint());
  e.timestamp = SimTime::from_micros(ts);
  SCI_TRY_ASSIGN(payload, Value::decode(r));
  e.payload = std::move(payload);
  return e;
}

std::string Event::to_string() const {
  return type + "#" + std::to_string(sequence) + " from " +
         source.short_string() + " @" + timestamp.to_string() + " " +
         payload.to_string();
}

Expected<EventView> EventView::parse(serde::FrameView frame) {
  serde::Reader r(frame);
  EventView v;
  SCI_TRY_ASSIGN(sequence, r.varint());
  v.sequence_ = sequence;
  SCI_TRY_ASSIGN(type, r.string_view());
  v.type_ = type;
  SCI_TRY_ASSIGN(source, r.guid());
  v.source_ = source;
  SCI_TRY_ASSIGN(ts, r.svarint());
  v.timestamp_ = SimTime::from_micros(ts);
  v.payload_ = frame.subview(r.position(), r.remaining());
  return v;
}

Expected<Value> EventView::decode_payload() const {
  serde::Reader r(payload_);
  return Value::decode(r);
}

Expected<Event> EventView::materialize() const {
  Event e;
  e.sequence = sequence_;
  e.type = std::string(type_);
  e.source = source_;
  e.timestamp = timestamp_;
  SCI_TRY_ASSIGN(payload, decode_payload());
  e.payload = std::move(payload);
  return e;
}

bool FieldConstraint::matches(const Value& payload) const {
  const Value& field = payload.at(key);
  switch (op) {
    case FilterOp::kExists:
      return !field.is_null();
    case FilterOp::kEquals:
      return field == operand;
    case FilterOp::kNotEquals:
      return !(field == operand);
    case FilterOp::kLess:
    case FilterOp::kLessOrEqual:
    case FilterOp::kGreater:
    case FilterOp::kGreaterOrEqual: {
      // Numeric comparisons only; a non-numeric field never matches.
      if (field.is_null()) return false;
      const auto lhs = field.as_double();
      const auto rhs = operand.as_double();
      if (!lhs || !rhs) return false;
      switch (op) {
        case FilterOp::kLess:
          return *lhs < *rhs;
        case FilterOp::kLessOrEqual:
          return *lhs <= *rhs;
        case FilterOp::kGreater:
          return *lhs > *rhs;
        case FilterOp::kGreaterOrEqual:
          return *lhs >= *rhs;
        default:
          SCI_UNREACHABLE();
      }
    }
  }
  SCI_UNREACHABLE();
}

void FieldConstraint::encode(serde::Writer& w) const {
  w.string(key);
  w.u8(static_cast<std::uint8_t>(op));
  operand.encode(w);
}

Expected<FieldConstraint> FieldConstraint::decode(serde::Reader& r) {
  FieldConstraint c;
  SCI_TRY_ASSIGN(key, r.string());
  c.key = std::move(key);
  SCI_TRY_ASSIGN(op, r.u8());
  if (op > static_cast<std::uint8_t>(FilterOp::kExists))
    return make_error(ErrorCode::kParseError, "bad filter op");
  c.op = static_cast<FilterOp>(op);
  SCI_TRY_ASSIGN(operand, Value::decode(r));
  c.operand = std::move(operand);
  return c;
}

bool EventFilter::matches(const Event& event) const {
  if (source.has_value() && *source != event.source) return false;
  for (const auto& constraint : fields) {
    if (!constraint.matches(event.payload)) return false;
  }
  return true;
}

void EventFilter::encode(serde::Writer& w) const {
  w.boolean(source.has_value());
  if (source.has_value()) {
    w.guid(*source);
  }
  w.varint(fields.size());
  for (const auto& field : fields) field.encode(w);
}

Expected<EventFilter> EventFilter::decode(serde::Reader& r) {
  EventFilter f;
  SCI_TRY_ASSIGN(has_source, r.boolean());
  if (has_source) {
    SCI_TRY_ASSIGN(source, r.guid());
    f.source = source;
  }
  SCI_TRY_ASSIGN(count, r.varint());
  if (count > r.remaining())
    return make_error(ErrorCode::kParseError, "filter count exceeds frame");
  for (std::uint64_t i = 0; i < count; ++i) {
    SCI_TRY_ASSIGN(field, FieldConstraint::decode(r));
    f.fields.push_back(std::move(field));
  }
  return f;
}

}  // namespace sci::event
