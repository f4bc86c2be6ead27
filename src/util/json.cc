/**
 * @file
 * Minimal JSON parser and writer implementation.
 */

#include "util/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace vlp {
namespace util {

namespace {

[[noreturn]] void
typeError(const char *wanted)
{
    throw std::runtime_error(std::string("JSON value is not a ")
                             + wanted);
}

} // anonymous namespace

bool
Json::asBool() const
{
    if (type_ != Type::Bool)
        typeError("bool");
    return bool_;
}

double
Json::asNumber() const
{
    if (type_ != Type::Number)
        typeError("number");
    return number_;
}

const std::string &
Json::numberText() const
{
    if (type_ != Type::Number)
        typeError("number");
    return text_;
}

std::uint64_t
Json::asUint() const
{
    if (type_ != Type::Number)
        typeError("number");
    return std::strtoull(text_.c_str(), nullptr, 10);
}

const std::string &
Json::asString() const
{
    if (type_ != Type::String)
        typeError("string");
    return text_;
}

const std::vector<Json> &
Json::items() const
{
    if (type_ != Type::Array)
        typeError("array");
    return items_;
}

const std::vector<std::pair<std::string, Json>> &
Json::members() const
{
    if (type_ != Type::Object)
        typeError("object");
    return members_;
}

const Json *
Json::find(const std::string &key) const
{
    if (type_ != Type::Object)
        return nullptr;
    for (const auto &[name, value] : members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    const Json *value = find(key);
    if (value == nullptr)
        throw std::runtime_error("JSON object has no member \"" + key
                                 + "\"");
    return *value;
}

/** Recursive-descent parser over a complete in-memory document. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    Json document()
    {
        Json value = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after JSON document");
        return value;
    }

  private:
    [[noreturn]] void fail(const std::string &what)
    {
        throw std::runtime_error("JSON parse error at offset "
                                 + std::to_string(pos_) + ": " + what);
    }

    void skipSpace()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    char peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char ch)
    {
        if (pos_ >= text_.size() || text_[pos_] != ch)
            fail(std::string("expected '") + ch + "'");
        ++pos_;
    }

    void literal(const char *word, std::size_t length)
    {
        if (text_.compare(pos_, length, word) != 0)
            fail(std::string("expected '") + word + "'");
        pos_ += length;
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"')
                return out;
            if (ch != '\\') {
                out.push_back(ch);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char escape = text_[pos_++];
            switch (escape) {
            case '"': out.push_back('"'); break;
            case '\\': out.push_back('\\'); break;
            case '/': out.push_back('/'); break;
            case 'b': out.push_back('\b'); break;
            case 'f': out.push_back('\f'); break;
            case 'n': out.push_back('\n'); break;
            case 'r': out.push_back('\r'); break;
            case 't': out.push_back('\t'); break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char hex = text_[pos_++];
                    code <<= 4;
                    if (hex >= '0' && hex <= '9')
                        code |= static_cast<unsigned>(hex - '0');
                    else if (hex >= 'a' && hex <= 'f')
                        code |= static_cast<unsigned>(hex - 'a' + 10);
                    else if (hex >= 'A' && hex <= 'F')
                        code |= static_cast<unsigned>(hex - 'A' + 10);
                    else
                        fail("bad \\u escape digit");
                }
                // UTF-8 encode the basic-plane code point (the writer
                // never emits surrogate pairs).
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xc0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                } else {
                    out.push_back(
                        static_cast<char>(0xe0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3f)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3f)));
                }
                break;
            }
            default:
                fail("unknown escape character");
            }
        }
    }

    Json parseValue()
    {
        skipSpace();
        Json value;
        switch (peek()) {
        case '{': {
            value.type_ = Json::Type::Object;
            expect('{');
            skipSpace();
            if (peek() == '}') {
                expect('}');
                return value;
            }
            for (;;) {
                skipSpace();
                std::string key = parseString();
                skipSpace();
                expect(':');
                value.members_.emplace_back(std::move(key),
                                            parseValue());
                skipSpace();
                if (peek() == ',') {
                    expect(',');
                    continue;
                }
                expect('}');
                return value;
            }
        }
        case '[': {
            value.type_ = Json::Type::Array;
            expect('[');
            skipSpace();
            if (peek() == ']') {
                expect(']');
                return value;
            }
            for (;;) {
                value.items_.push_back(parseValue());
                skipSpace();
                if (peek() == ',') {
                    expect(',');
                    continue;
                }
                expect(']');
                return value;
            }
        }
        case '"':
            value.type_ = Json::Type::String;
            value.text_ = parseString();
            return value;
        case 't':
            literal("true", 4);
            value.type_ = Json::Type::Bool;
            value.bool_ = true;
            return value;
        case 'f':
            literal("false", 5);
            value.type_ = Json::Type::Bool;
            value.bool_ = false;
            return value;
        case 'n':
            literal("null", 4);
            value.type_ = Json::Type::Null;
            return value;
        default: {
            const std::size_t start = pos_;
            if (peek() == '-')
                ++pos_;
            while (pos_ < text_.size()
                   && (std::isdigit(
                           static_cast<unsigned char>(text_[pos_]))
                       || text_[pos_] == '.' || text_[pos_] == 'e'
                       || text_[pos_] == 'E' || text_[pos_] == '+'
                       || text_[pos_] == '-')) {
                ++pos_;
            }
            if (pos_ == start)
                fail("unexpected character");
            value.type_ = Json::Type::Number;
            value.text_ = text_.substr(start, pos_ - start);
            char *end = nullptr;
            value.number_ = std::strtod(value.text_.c_str(), &end);
            if (end != value.text_.c_str() + value.text_.size())
                fail("malformed number");
            return value;
        }
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

Json
Json::parse(const std::string &text)
{
    return JsonParser(text).document();
}

// --- JsonWriter -----------------------------------------------------

std::string
JsonWriter::quote(const std::string &text)
{
    std::string out = "\"";
    for (const char ch : text) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\b': out += "\\b"; break;
        case '\f': out += "\\f"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(ch)));
                out += buffer;
            } else {
                out.push_back(ch);
            }
        }
    }
    out.push_back('"');
    return out;
}

void
JsonWriter::comma()
{
    if (pendingKey_) {
        pendingKey_ = false;
        return; // value belongs to the key already emitted
    }
    if (!scopes_.empty()) {
        if (scopes_.back())
            out_ += ",";
        scopes_.back() = true;
        if (style_ == Style::Pretty) {
            out_ += "\n";
            indent();
        }
    }
}

void
JsonWriter::indent()
{
    out_.append(scopes_.size() * 2, ' ');
}

void
JsonWriter::beginObject()
{
    comma();
    out_ += "{";
    scopes_.push_back(false);
}

void
JsonWriter::endObject()
{
    assert(!scopes_.empty());
    const bool had_members = scopes_.back();
    scopes_.pop_back();
    if (had_members && style_ == Style::Pretty) {
        out_ += "\n";
        indent();
    }
    out_ += "}";
}

void
JsonWriter::beginArray()
{
    comma();
    out_ += "[";
    scopes_.push_back(false);
}

void
JsonWriter::endArray()
{
    assert(!scopes_.empty());
    const bool had_items = scopes_.back();
    scopes_.pop_back();
    if (had_items && style_ == Style::Pretty) {
        out_ += "\n";
        indent();
    }
    out_ += "]";
}

void
JsonWriter::key(const std::string &name)
{
    assert(!pendingKey_);
    comma();
    out_ += quote(name);
    out_ += style_ == Style::Pretty ? ": " : ":";
    pendingKey_ = true;
}

void
JsonWriter::value(const std::string &text)
{
    comma();
    out_ += quote(text);
}

void
JsonWriter::value(const char *text)
{
    value(std::string(text));
}

void
JsonWriter::value(std::uint64_t number)
{
    comma();
    out_ += std::to_string(number);
}

void
JsonWriter::value(double number)
{
    comma();
    if (!std::isfinite(number)) {
        // JSON has no Infinity/NaN literal; the formatted text of the
        // owning cell still carries the exact rendering.
        out_ += "null";
        return;
    }
    // The text is the lowest-precision %g form that round-trips
    // (%.17g always does). No precision below the digit count of the
    // shortest round-trip form can, so the search starts there; it
    // steps up only when %g's correctly rounded digits at that
    // precision differ from the shortest form's and miss the value.
    char buffer[64];
    char *const limit = buffer + sizeof(buffer);
    char *end = std::to_chars(buffer, limit, number,
                              std::chars_format::scientific)
                    .ptr;
    int precision = 0;
    for (const char *c = buffer; c != end && *c != 'e'; ++c)
        precision += *c >= '0' && *c <= '9';
    for (;; ++precision) {
        end = std::to_chars(buffer, limit, number,
                            std::chars_format::general, precision)
                  .ptr;
        double parsed = 0.0;
        std::from_chars(buffer, end, parsed);
        if (parsed == number || precision >= 17)
            break;
    }
    out_.append(buffer, end);
}

void
JsonWriter::value(bool flag)
{
    comma();
    out_ += flag ? "true" : "false";
}

void
JsonWriter::nullValue()
{
    comma();
    out_ += "null";
}

void
JsonWriter::rawNumber(const std::string &text)
{
    comma();
    out_ += text;
}

void
writeJson(JsonWriter &writer, const Json &value)
{
    switch (value.type()) {
    case Json::Type::Null:
        writer.nullValue();
        break;
    case Json::Type::Bool:
        writer.value(value.asBool());
        break;
    case Json::Type::Number:
        writer.rawNumber(value.numberText());
        break;
    case Json::Type::String:
        writer.value(value.asString());
        break;
    case Json::Type::Array:
        writer.beginArray();
        for (const Json &item : value.items())
            writeJson(writer, item);
        writer.endArray();
        break;
    case Json::Type::Object:
        writer.beginObject();
        for (const auto &[key, member] : value.members()) {
            writer.key(key);
            writeJson(writer, member);
        }
        writer.endObject();
        break;
    }
}

std::string
toCompactJson(const Json &value)
{
    JsonWriter writer(JsonWriter::Style::Compact);
    writeJson(writer, value);
    return writer.str();
}

std::string
toPrettyJson(const Json &value)
{
    JsonWriter writer;
    writeJson(writer, value);
    return writer.str();
}

} // namespace util
} // namespace vlp
