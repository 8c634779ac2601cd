// One field list per stats struct.
//
// A stats struct (RouteStats, FlowStats, PlaceStats, SchedStats,
// StageTimes) names its fields once, in an X-macro list of X(name)
// entries, and expands that list with MSYNTH_STATS_FIELDS. The expansion
// declares one zero-initialized member of the struct's value_type per
// entry and a static for_each_field(f) that calls f(key, member pointer)
// for each entry in list order; the key is the member name, which is also
// the field's JSON key. Everything that touches every field is generated
// from for_each_field:
//
//   - accumulate_fields: each struct's operator+=;
//   - AtomicFields (runtime/telemetry.hpp): Telemetry's atomics and its
//     record, snapshot and reset;
//   - write_fields: the telemetry, engine, result and bench JSON objects;
//   - read_fields (runtime/result_io.cpp): the spill reader.
//
// Adding a counter therefore takes one line in its struct's list plus the
// site that increments it.

#pragma once

#include <cstddef>
#include <ostream>

#define MSYNTH_STATS_MEMBER(name) value_type name = 0;
#define MSYNTH_STATS_VISIT(name) f(#name, &Self::name);

/// Expands the X-macro `LIST` inside `Struct`: a `value_type` alias
/// (`Type`), one member per entry, and for_each_field.
#define MSYNTH_STATS_FIELDS(Struct, Type, LIST) \
  using value_type = Type;                      \
  LIST(MSYNTH_STATS_MEMBER)                     \
  template <class F>                            \
  static constexpr void for_each_field(F&& f) { \
    using Self = Struct;                        \
    LIST(MSYNTH_STATS_VISIT)                    \
  }

namespace fbmb {

/// Number of listed fields of S.
template <class S>
constexpr std::size_t field_count() {
  std::size_t n = 0;
  S::for_each_field([&n](const char*, auto) { ++n; });
  return n;
}

/// a.field += b.field for every listed field.
template <class S>
S& accumulate_fields(S& a, const S& b) {
  S::for_each_field([&](const char*, auto member) { a.*member += b.*member; });
  return a;
}

/// Passes a value through unchanged: integer counters print as they are.
struct AsIs {
  template <class T>
  const T& operator()(const T& value) const {
    return value;
  }
};

/// Writes `"key": value` for every listed field, joined by ", " and
/// without braces, so a caller can append members of its own; `format`
/// turns each value into something streamable.
template <class S, class Format = AsIs>
void write_field_members(std::ostream& os, const S& s, Format format = {}) {
  const char* separator = "";
  S::for_each_field([&](const char* key, auto member) {
    os << separator << '"' << key << "\": " << format(s.*member);
    separator = ", ";
  });
}

/// `{"key": value, ...}` over every listed field.
template <class S, class Format = AsIs>
void write_fields(std::ostream& os, const S& s, Format format = {}) {
  os << '{';
  write_field_members(os, s, format);
  os << '}';
}

}  // namespace fbmb
