/**
 * @file
 * A minimal JSON reader for the framework's own machine-readable
 * artifacts (status.json, manifest.json, the telemetry endpoints).
 *
 * The framework *writes* JSON in several places but until the live
 * telemetry plane never had to read it back; `gest top` does (it polls
 * /status and /history over HTTP), and tests use it to validate every
 * JSON artifact structurally instead of with string searches. This is
 * a full RFC 8259 reader for the subset the framework emits: objects,
 * arrays, strings with the common escapes, numbers, booleans, null.
 * It is not a streaming parser and keeps the whole tree in memory —
 * our payloads are kilobytes.
 */

#ifndef GEST_UTIL_JSONLITE_HH
#define GEST_UTIL_JSONLITE_HH

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace gest {
namespace json {

/** One parsed JSON value; a tagged tree. */
class Value
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;

    /** Object members in file order (duplicate keys kept as written). */
    std::vector<std::pair<std::string, Value>> members;

    bool isNull() const { return type == Type::Null; }
    bool isObject() const { return type == Type::Object; }
    bool isArray() const { return type == Type::Array; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }

    /** Member @p key of an object, or nullptr. */
    const Value* find(const std::string& key) const;

    /** Number at @p key, or @p fallback when absent or not a number. */
    double numberOr(const std::string& key, double fallback) const;

    /** String at @p key, or @p fallback when absent or not a string. */
    std::string stringOr(const std::string& key,
                         const std::string& fallback) const;
};

/**
 * Parse @p text into @p out. @return true on success; on failure
 * @p error (when non-null) receives a one-line message with the byte
 * offset of the problem.
 */
bool parse(std::string_view text, Value& out, std::string* error);

} // namespace json
} // namespace gest

#endif // GEST_UTIL_JSONLITE_HH
