#pragma once
// Table-driven JSON object schemas. A struct's JSON surface is one
// constexpr array of Field rows in key order: the key, the member it binds
// (whose C++ type picks the JSON type), the accepted range or choice set,
// the exact rejection message, and when the field appears in canonical
// output. read_fields() validates a parsed object into the struct against
// the table; write_fields() renders the struct back canonically (rows in
// key order, canonical_number, JsonWriter::escape, no whitespace). Adding
// a field is adding a row, so a validator and its canonical form — and
// with it every config hash — cannot drift apart.
//
// How values are read and failures reported is the front end's, through a
// FieldReader: the scenario loader collects located diagnostics and wants
// integers spelled as integers, the serving daemon keeps its first error
// and takes any integral number. Both read the same tables.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "obs/canonical.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace gcdr::obs {

/// Accepted interval of a numeric field; closed unless flagged open.
struct Range {
    double lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    bool lo_open = false;
    bool hi_open = false;

    [[nodiscard]] constexpr bool contains(double x) const {
        return (lo_open ? x > lo : x >= lo) && (hi_open ? x < hi : x <= hi);
    }
};

constexpr Range between(double lo, double hi) { return {lo, hi}; }
constexpr Range inside(double lo, double hi) { return {lo, hi, true, true}; }
constexpr Range at_least(double lo) { return {.lo = lo}; }
constexpr Range above(double lo) { return {.lo = lo, .lo_open = true}; }
constexpr Range at_most(double hi) { return {.hi = hi}; }

/// What a field accepts beyond its JSON type; a value that breaks any
/// part is rejected with `message`.
struct Rule {
    Range range{};
    /// Strings: the accepted spellings (an enum member's, in enumerator
    /// order). Counts: the accepted values, in decimal.
    std::span<const std::string_view> choices{};
    bool (*accept)(std::string_view) = nullptr;  ///< strings: extra check
    std::string_view message{};
};

constexpr Rule rule(Range range, std::string_view message) {
    return {.range = range, .message = message};
}
constexpr Rule one_of(std::span<const std::string_view> choices,
                      std::string_view message) {
    return {.choices = choices, .message = message};
}

/// A front end's way of reading values and reporting failures. Readers
/// report their own type errors; the walkers report rule failures
/// through reject().
class FieldReader {
public:
    virtual void fail(const JsonValue& at, const std::string& path,
                      const std::string& message) = 0;
    virtual bool real(const JsonValue& v, const std::string& path,
                      double& out) = 0;
    /// `rule` lets a reader fold the range into its one message.
    virtual bool count(const JsonValue& v, const std::string& path,
                       const Rule& rule, std::uint64_t& out) = 0;
    virtual bool text(const JsonValue& v, const std::string& path,
                      std::string& out) = 0;
    virtual bool boolean(const JsonValue& v, const std::string& path,
                         bool& out) = 0;
    virtual bool values(const JsonValue& v, const std::string& path,
                        std::vector<double>& out) = 0;
    /// A key no row names; `kind` is context for the message (may be
    /// empty).
    virtual void unknown(const JsonValue& v, const std::string& path,
                         const std::string& key, std::string_view kind) = 0;

    void reject(const JsonValue& v, const std::string& path,
                const Rule& rule) {
        fail(v, path, std::string(rule.message));
    }

protected:
    ~FieldReader() = default;
};

template <class S>
struct Field {
    std::string_view key;
    /// Returns true when the value was accepted.
    bool (*read)(FieldReader&, const Field&, const JsonValue&,
                 const std::string& path, S&) = nullptr;
    /// Appends the value (the key is already written).
    void (*write)(std::string& out, const Field&, const S&) = nullptr;
    Rule rule{};
    bool (*emit_if)(const S&) = nullptr;  ///< null: always emitted
    /// Set for numeric members, so they can be swept by name. An integer
    /// member takes the value truncated; `integral` tells a caller to
    /// accept only whole numbers.
    void (*set_number)(S&, double) = nullptr;
    bool integral = false;
};

/// Tables list keys in strictly increasing order, the canonical member
/// order; at most 64 rows (Seen's bit sets).
template <class S>
constexpr bool keys_sorted(
    std::type_identity_t<std::span<const Field<S>>> rows) {
    for (std::size_t i = 1; i < rows.size(); ++i) {
        if (!(rows[i - 1].key < rows[i].key)) return false;
    }
    return rows.size() <= 64;
}

/// The rows a read_fields call met; bit i stands for rows[i].
struct Seen {
    std::uint64_t present = 0;  ///< the key occurred
    std::uint64_t parsed = 0;   ///< its last occurrence was accepted
};

template <class S>
constexpr std::uint64_t field_bit(
    std::type_identity_t<std::span<const Field<S>>> rows,
    std::string_view key) {
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (rows[i].key == key) return std::uint64_t{1} << i;
    }
    return 0;
}

/// How read_fields treats a key no row names.
struct UnknownKeys {
    std::string_view kind{};  ///< passed on to FieldReader::unknown
    /// Read the value as a number first, so a non-number reports as such
    /// (the ModelConfig surface's historical diagnostic).
    bool numbers_first = false;
};

/// Validate each member of object `obj` (at `path`) against `rows` into
/// `s`; absent fields keep their value. The caller has checked that `obj`
/// is an object.
template <class S>
Seen read_fields(FieldReader& r, const JsonValue& obj, const std::string& path,
                 std::type_identity_t<std::span<const Field<S>>> rows, S& s,
                 UnknownKeys unknown = {}) {
    Seen seen;
    for (const auto& [key, val] : obj.members) {
        const std::string kp = path + "." + key;
        const auto row = std::find_if(rows.begin(), rows.end(),
                                      [&](const Field<S>& f) {
                                          return f.key == key;
                                      });
        if (row == rows.end()) {
            double ignored = 0.0;
            if (!unknown.numbers_first || r.real(val, kp, ignored)) {
                r.unknown(val, kp, key, unknown.kind);
            }
            continue;
        }
        const std::uint64_t bit = std::uint64_t{1} << (row - rows.begin());
        seen.present |= bit;
        seen.parsed = row->read(r, *row, val, kp, s) ? seen.parsed | bit
                                                     : seen.parsed & ~bit;
    }
    return seen;
}

/// Append the canonical JSON object of `s`.
template <class S>
void write_fields(std::string& out,
                  std::type_identity_t<std::span<const Field<S>>> rows,
                  const S& s) {
    out += '{';
    bool first = true;
    for (const Field<S>& f : rows) {
        if (f.emit_if && !f.emit_if(s)) continue;
        if (!first) out += ',';
        first = false;
        out += '"';
        out += f.key;
        out += "\":";
        f.write(out, f, s);
    }
    out += '}';
}

inline void write_string(std::string& out, std::string_view s) {
    out += '"';
    out += JsonWriter::escape(s);
    out += '"';
}

inline void write_numbers(std::string& out, const std::vector<double>& xs) {
    out += '[';
    for (std::size_t i = 0; i < xs.size(); ++i) {
        if (i) out += ',';
        out += canonical_number(xs[i], {});
    }
    out += ']';
}

namespace detail {

template <class M>
struct member_of;
template <class C, class T>
struct member_of<T C::*> {
    using owner = C;
};
template <auto First, auto...>
struct owner {
    using type = typename member_of<decltype(First)>::owner;
};
/// The struct a member-pointer path starts from.
template <auto... Path>
using owner_t = typename owner<Path...>::type;

template <auto First, auto... Rest, class S>
constexpr auto& member(S& s) {
    return ((s.*First) .* ... .* Rest);
}

inline bool is_choice(const Rule& rule, std::string_view s) {
    return std::find(rule.choices.begin(), rule.choices.end(), s) !=
           rule.choices.end();
}

// Reals and strings are stored even when rejected, so cross-field checks
// compare what the author wrote (the scenario netlist's shared channel
// template); counts and enums are stored only when accepted.
template <auto... Path>
bool read_member(FieldReader& r, const Field<owner_t<Path...>>& f,
                 const JsonValue& v, const std::string& path,
                 owner_t<Path...>& s) {
    auto& out = member<Path...>(s);
    using T = std::remove_cvref_t<decltype(out)>;
    const Rule& rule = f.rule;
    bool ok = false;
    if constexpr (std::is_same_v<T, double>) {
        if (!r.real(v, path, out)) return false;
        ok = rule.range.contains(out);
    } else if constexpr (std::is_same_v<T, bool>) {
        return r.boolean(v, path, out);
    } else if constexpr (std::is_integral_v<T>) {
        std::uint64_t n = 0;
        if (!r.count(v, path, rule, n)) return false;
        ok = rule.range.contains(static_cast<double>(n)) &&
             (rule.choices.empty() || is_choice(rule, std::to_string(n)));
        if (ok) out = static_cast<T>(n);
    } else if constexpr (std::is_same_v<T, std::string>) {
        if (!r.text(v, path, out)) return false;
        ok = (rule.choices.empty() || is_choice(rule, out)) &&
             (!rule.accept || rule.accept(out));
    } else if constexpr (std::is_enum_v<T>) {
        std::string name;
        if (!r.text(v, path, name)) return false;
        const auto it =
            std::find(rule.choices.begin(), rule.choices.end(), name);
        ok = it != rule.choices.end();
        if (ok) out = static_cast<T>(it - rule.choices.begin());
    } else {
        return r.values(v, path, out);
    }
    if (!ok) r.reject(v, path, rule);
    return ok;
}

template <auto... Path>
void write_member(std::string& out, const Field<owner_t<Path...>>& f,
                  const owner_t<Path...>& s) {
    const auto& x = member<Path...>(s);
    using T = std::remove_cvref_t<decltype(x)>;
    if constexpr (std::is_same_v<T, double>) {
        out += canonical_number(x, {});
    } else if constexpr (std::is_same_v<T, bool>) {
        out += x ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
        out += std::to_string(x);
    } else if constexpr (std::is_same_v<T, std::string>) {
        write_string(out, x);
    } else if constexpr (std::is_enum_v<T>) {
        write_string(out, f.rule.choices[static_cast<std::size_t>(x)]);
    } else {
        write_numbers(out, x);
    }
}

template <auto... Path>
void set_number_member(owner_t<Path...>& s, double x) {
    auto& out = member<Path...>(s);
    out = static_cast<std::remove_cvref_t<decltype(out)>>(x);
}

}  // namespace detail

/// A row bound to a member path: field<&Cfg::grid_dx>("grid_dx"), or for
/// a nested member field<&Cfg::spec, &Spec::dj_uipp>("dj_uipp").
template <auto... Path>
constexpr Field<detail::owner_t<Path...>> field(
    std::string_view key, Rule rule = {},
    bool (*emit_if)(const detail::owner_t<Path...>&) = nullptr) {
    using S = detail::owner_t<Path...>;
    using T = std::remove_cvref_t<decltype(detail::member<Path...>(
        std::declval<S&>()))>;
    Field<S> f{key, &detail::read_member<Path...>,
               &detail::write_member<Path...>, rule, emit_if};
    if constexpr (std::is_arithmetic_v<T> && !std::is_same_v<T, bool>) {
        f.set_number = &detail::set_number_member<Path...>;
        f.integral = std::is_integral_v<T>;
    }
    return f;
}

/// emit_if: the canonical form omits the field while it holds its
/// default (the member initializer's value).
template <auto... Path>
bool unless_default(const detail::owner_t<Path...>& s) {
    static const detail::owner_t<Path...> defaults{};
    return detail::member<Path...>(s) != detail::member<Path...>(defaults);
}

/// A constant member the front end has already dispatched on (an
/// object's "kind"): read accepts it as is, write emits `value[0]`.
template <class S>
constexpr Field<S> tag(std::string_view key,
                       std::span<const std::string_view, 1> value) {
    return {key,
            [](FieldReader&, const Field<S>&, const JsonValue&,
               const std::string&, S&) { return true; },
            [](std::string& out, const Field<S>& f, const S&) {
                write_string(out, f.rule.choices[0]);
            },
            {.choices = value}};
}

}  // namespace gcdr::obs
