#include "src/lint/lexer.hh"

#include <cctype>

namespace conopt::lint {

namespace {

bool
isIdentStart(char c)
{
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool
isIdentCont(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Multi-character punctuators we keep together; everything else is
 *  emitted one character at a time. Only the ones the rules care
 *  about matter (`::`, `->`), but keeping the common ones intact
 *  makes token dumps readable. */
bool
isTwoCharPunct(char a, char b)
{
    switch (a) {
      case ':': return b == ':';
      case '-': return b == '>' || b == '-' || b == '=';
      case '+': return b == '+' || b == '=';
      case '<': return b == '<' || b == '=';
      case '>': return b == '>' || b == '=';
      case '=': return b == '=';
      case '!': return b == '=';
      case '&': return b == '&' || b == '=';
      case '|': return b == '|' || b == '=';
      default: return false;
    }
}

} // namespace

LexedFile
lex(std::string_view src)
{
    LexedFile out;
    out.tokens.reserve(src.size() / 6 + 8);
    size_t i = 0;
    const size_t n = src.size();
    int line = 1;

    const auto advance = [&](size_t count) {
        for (size_t k = 0; k < count && i < n; ++k, ++i)
            if (src[i] == '\n')
                ++line;
    };

    while (i < n) {
        const char c = src[i];

        // Whitespace.
        if (c == '\n' || c == ' ' || c == '\t' || c == '\r' ||
            c == '\f' || c == '\v') {
            advance(1);
            continue;
        }

        // Line comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '/') {
            const int startLine = line;
            size_t j = i + 2;
            while (j < n && src[j] != '\n')
                ++j;
            out.comments.push_back(
                {std::string(src.substr(i + 2, j - (i + 2))), startLine});
            advance(j - i);
            continue;
        }

        // Block comment.
        if (c == '/' && i + 1 < n && src[i + 1] == '*') {
            const int startLine = line;
            size_t j = i + 2;
            while (j + 1 < n && !(src[j] == '*' && src[j + 1] == '/'))
                ++j;
            const size_t end = (j + 1 < n) ? j : n;
            out.comments.push_back(
                {std::string(src.substr(i + 2, end - (i + 2))), startLine});
            advance((j + 1 < n ? j + 2 : n) - i);
            continue;
        }

        // Raw string literal: R"tag( ... )tag". Also uR/u8R/LR
        // prefixes; the prefix characters were already consumed as an
        // identifier if separated, so handle the common joined form.
        if ((c == 'R' || c == 'u' || c == 'U' || c == 'L') &&
            isIdentStart(c)) {
            // Look ahead for a raw-string opener within the prefix.
            size_t j = i;
            while (j < n && (src[j] == 'u' || src[j] == 'U' ||
                             src[j] == 'L' || src[j] == '8'))
                ++j;
            if (j < n && src[j] == 'R' && j + 1 < n && src[j + 1] == '"') {
                const int startLine = line;
                size_t d = j + 2;  // delimiter start
                while (d < n && src[d] != '(')
                    ++d;
                std::string delim = ")";
                delim += src.substr(j + 2, d - (j + 2));
                delim += '"';
                const size_t bodyStart = (d < n) ? d + 1 : n;
                const size_t close = src.find(delim, bodyStart);
                const size_t bodyEnd =
                    (close == std::string_view::npos) ? n : close;
                out.tokens.push_back(
                    {TokKind::String,
                     std::string(src.substr(bodyStart, bodyEnd - bodyStart)),
                     startLine});
                const size_t next = (close == std::string_view::npos)
                                        ? n
                                        : close + delim.size();
                advance(next - i);
                continue;
            }
            // Fall through: plain identifier starting with R/u/U/L.
        }

        // Identifier / keyword.
        if (isIdentStart(c)) {
            size_t j = i + 1;
            while (j < n && isIdentCont(src[j]))
                ++j;
            out.tokens.push_back(
                {TokKind::Identifier, std::string(src.substr(i, j - i)),
                 line});
            advance(j - i);
            continue;
        }

        // Number (we do not need exact C++ numeric grammar; consume
        // the maximal [0-9a-zA-Z_.'+-after-exponent] run).
        if (std::isdigit(static_cast<unsigned char>(c)) ||
            (c == '.' && i + 1 < n &&
             std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
            size_t j = i + 1;
            while (j < n &&
                   (isIdentCont(src[j]) || src[j] == '.' || src[j] == '\'' ||
                    ((src[j] == '+' || src[j] == '-') &&
                     (src[j - 1] == 'e' || src[j - 1] == 'E' ||
                      src[j - 1] == 'p' || src[j - 1] == 'P'))))
                ++j;
            out.tokens.push_back(
                {TokKind::Number, std::string(src.substr(i, j - i)), line});
            advance(j - i);
            continue;
        }

        // Ordinary string literal.
        if (c == '"') {
            const int startLine = line;
            size_t j = i + 1;
            while (j < n && src[j] != '"') {
                if (src[j] == '\\' && j + 1 < n)
                    ++j;  // skip escaped char (incl. \")
                ++j;
            }
            out.tokens.push_back(
                {TokKind::String, std::string(src.substr(i + 1, j - (i + 1))),
                 startLine});
            advance((j < n ? j + 1 : n) - i);
            continue;
        }

        // Character literal. Distinguish from digit separators: a '
        // reaches here only outside a number, so it always opens one.
        if (c == '\'') {
            const int startLine = line;
            size_t j = i + 1;
            while (j < n && src[j] != '\'') {
                if (src[j] == '\\' && j + 1 < n)
                    ++j;
                ++j;
            }
            out.tokens.push_back(
                {TokKind::CharLit,
                 std::string(src.substr(i + 1, j - (i + 1))), startLine});
            advance((j < n ? j + 1 : n) - i);
            continue;
        }

        // Punctuation.
        if (i + 1 < n && isTwoCharPunct(c, src[i + 1])) {
            out.tokens.push_back(
                {TokKind::Punct, std::string(src.substr(i, 2)), line});
            advance(2);
            continue;
        }
        out.tokens.push_back({TokKind::Punct, std::string(1, c), line});
        advance(1);
    }

    out.lineCount = line;
    return out;
}

} // namespace conopt::lint
