// tools/amtlint/amtlint.cpp — tokenizer, lightweight scope/capture analysis,
// and the five AMT rules.  See amtlint.hpp for the rule catalogue.
//
// Design notes.  The analysis is deliberately token-based, not AST-based: a
// real C++ frontend is a dependency this tree cannot take, and the rules
// only need (a) balanced-bracket structure, (b) lambda introducer/parameter
// /body spans, (c) function-definition spans with a same-file call graph,
// and (d) statement boundaries.  Heuristics are tuned to be *quiet*: a rule
// that cries wolf gets suppressed wholesale and protects nothing.  Every
// heuristic here is covered by a positive and a negative fixture test
// (tests/tools/), and the tree itself runs clean (ctest -L lint).

#include "amtlint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace amtlint {

std::string diagnostic::format() const {
    std::ostringstream os;
    os << file << ":" << line << ": [" << rule << "] " << message;
    return os.str();
}

namespace {

// ===================== tokenizer =====================

struct token {
    enum class kind { ident, number, string, punct };
    kind k = kind::punct;
    std::string text;
    int line = 1;
};

/// Suppressions harvested from `// amtlint: allow(AMTnnn) reason` comments:
/// rule -> set of lines the comment covers (its own line and the next).
using suppression_map = std::map<std::string, std::set<int>>;

void harvest_suppression(const std::string& comment, int line,
                         suppression_map& sup) {
    const std::string key = "amtlint:";
    auto at = comment.find(key);
    if (at == std::string::npos) return;
    at = comment.find("allow(", at);
    while (at != std::string::npos) {
        const auto close = comment.find(')', at);
        if (close == std::string::npos) break;
        std::string rule = comment.substr(at + 6, close - (at + 6));
        sup[rule].insert(line);
        sup[rule].insert(line + 1);
        at = comment.find("allow(", close);
    }
}

/// Multi-character punctuators the rules care about; everything else lexes
/// one character at a time (correct for bracket matching either way).
constexpr std::array<const char*, 14> kPuncts = {
    "::", "->", "==", "!=", "<=", ">=", "+=", "-=",
    "*=", "/=", "&&", "||", "<<", ">>"};

std::vector<token> tokenize(const std::string& s, suppression_map& sup) {
    std::vector<token> out;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = s.size();

    auto peek = [&](std::size_t k) { return i + k < n ? s[i + k] : '\0'; };

    while (i < n) {
        const char c = s[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        // Preprocessor directive: consume to end of line (honoring \-splices).
        if (c == '#' && (out.empty() || out.back().line != line)) {
            while (i < n && s[i] != '\n') {
                if (s[i] == '\\' && peek(1) == '\n') {
                    ++line;
                    i += 2;
                    continue;
                }
                ++i;
            }
            continue;
        }
        if (c == '/' && peek(1) == '/') {
            const std::size_t start = i;
            while (i < n && s[i] != '\n') ++i;
            harvest_suppression(s.substr(start, i - start), line, sup);
            continue;
        }
        if (c == '/' && peek(1) == '*') {
            const std::size_t start = i;
            const int start_line = line;
            i += 2;
            while (i < n && !(s[i] == '*' && peek(1) == '/')) {
                if (s[i] == '\n') ++line;
                ++i;
            }
            i = std::min(n, i + 2);
            harvest_suppression(s.substr(start, i - start), start_line, sup);
            continue;
        }
        if (c == '"' || c == '\'') {
            // Classic literal; raw strings are caught in the ident branch
            // below (their `R`-prefix lexes as an identifier first).
            const char quote = c;
            const int start_line = line;
            ++i;
            while (i < n && s[i] != quote) {
                if (s[i] == '\\') ++i;
                if (i < n && s[i] == '\n') ++line;
                ++i;
            }
            ++i;
            out.push_back({token::kind::string, std::string(1, quote),
                           start_line});
            continue;
        }
        if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
            std::size_t j = i;
            while (j < n && (std::isalnum(static_cast<unsigned char>(s[j])) ||
                             s[j] == '_')) {
                ++j;
            }
            std::string word = s.substr(i, j - i);
            // Raw string literal: R"delim( ... )delim" — the contents are
            // NOT code and may hold quotes/backslashes the classic lexer
            // would mis-pair, so skip to the matching )delim" wholesale.
            if (j < n && s[j] == '"' &&
                (word == "R" || word == "LR" || word == "u8R" ||
                 word == "uR" || word == "UR")) {
                const int start_line = line;
                std::size_t d = j + 1;
                while (d < n && s[d] != '(' && s[d] != '\n') ++d;
                std::string close(")");
                close.append(s, j + 1, d - (j + 1));
                close.push_back('"');
                std::size_t end = s.find(close, d);
                end = end == std::string::npos ? n : end + close.size();
                for (std::size_t k = i; k < end; ++k) {
                    if (s[k] == '\n') ++line;
                }
                out.push_back({token::kind::string, "\"", start_line});
                i = end;
                continue;
            }
            out.push_back({token::kind::ident, std::move(word), line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i;
            while (j < n && (std::isalnum(static_cast<unsigned char>(s[j])) ||
                             s[j] == '.' || s[j] == '\'')) {
                ++j;
            }
            out.push_back({token::kind::number, s.substr(i, j - i), line});
            i = j;
            continue;
        }
        const char* two = nullptr;
        for (const char* p : kPuncts) {
            if (c == p[0] && peek(1) == p[1]) {
                two = p;
                break;
            }
        }
        if (two != nullptr) {
            out.push_back({token::kind::punct, two, line});
            i += 2;
        } else {
            out.push_back({token::kind::punct, std::string(1, c), line});
            ++i;
        }
    }
    return out;
}

// ===================== token-stream utilities =====================

bool is(const token& t, const char* text) { return t.text == text; }

/// Index just past the bracket matching tokens[open] ('(', '[' or '{');
/// returns tokens.size() when unbalanced (truncated input).
std::size_t match_bracket(const std::vector<token>& toks, std::size_t open) {
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        const std::string& t = toks[i].text;
        if (t == "(" || t == "[" || t == "{") ++depth;
        if (t == ")" || t == "]" || t == "}") {
            --depth;
            if (depth == 0) return i;
        }
    }
    return toks.size();
}

/// True when tokens[i] == "[" opens a lambda introducer rather than a
/// subscript, array declarator, or attribute.
bool is_lambda_intro(const std::vector<token>& toks, std::size_t i) {
    if (!is(toks[i], "[")) return false;
    // [[attribute]] — either half.
    if (i + 1 < toks.size() && is(toks[i + 1], "[")) return false;
    if (i > 0 && is(toks[i - 1], "[")) return false;
    if (i == 0) return true;
    const token& prev = toks[i - 1];
    if (prev.k == token::kind::ident) {
        // `return [..]{...}` and `co_return`/`case` style keywords still
        // introduce lambdas; a plain identifier means a subscript/declarator.
        static const std::unordered_set<std::string> kw = {
            "return", "case", "co_return", "co_yield", "throw", "new",
            "delete", "else", "do"};
        return kw.count(prev.text) > 0;
    }
    if (prev.k == token::kind::number || prev.k == token::kind::string) {
        return false;
    }
    return !(is(prev, ")") || is(prev, "]"));
}

struct lambda_info {
    std::size_t intro_lo = 0;  ///< '['
    std::size_t intro_hi = 0;  ///< matching ']'
    std::size_t params_lo = 0; ///< '(' or 0 when absent
    std::size_t params_hi = 0;
    std::size_t body_lo = 0;   ///< '{'
    std::size_t body_hi = 0;   ///< matching '}'
    int line = 0;
};

/// Parses the lambda whose introducer starts at `i`; nullopt when the shape
/// does not pan out (e.g. a subscript the heuristic let through).
std::optional<lambda_info> parse_lambda(const std::vector<token>& toks,
                                        std::size_t i) {
    lambda_info lam;
    lam.intro_lo = i;
    lam.intro_hi = match_bracket(toks, i);
    lam.line = toks[i].line;
    if (lam.intro_hi >= toks.size()) return std::nullopt;
    std::size_t j = lam.intro_hi + 1;
    if (j < toks.size() && is(toks[j], "(")) {
        lam.params_lo = j;
        lam.params_hi = match_bracket(toks, j);
        if (lam.params_hi >= toks.size()) return std::nullopt;
        j = lam.params_hi + 1;
    }
    // Specifiers / attributes / trailing return type up to the body brace.
    // '<' '>' are not bracket-matched; they cannot hide a '{' in practice.
    int guard = 0;
    while (j < toks.size() && !is(toks[j], "{")) {
        if (is(toks[j], "(") || is(toks[j], "[")) {
            j = match_bracket(toks, j);
            if (j >= toks.size()) return std::nullopt;
        }
        if (is(toks[j], ";") || is(toks[j], ")") || is(toks[j], "}")) {
            return std::nullopt;  // not a lambda after all
        }
        ++j;
        if (++guard > 64) return std::nullopt;
    }
    if (j >= toks.size()) return std::nullopt;
    lam.body_lo = j;
    lam.body_hi = match_bracket(toks, j);
    if (lam.body_hi >= toks.size()) return std::nullopt;
    return lam;
}

/// Entry points whose callable argument becomes (or gates) a scheduled
/// task: by-ref captures dangle (AMT001) and blocking waits starve workers
/// (AMT002) inside any lambda in their argument list.  `then` covers
/// continuations; `add_node` bodies are compiled-graph tasks recycled
/// across replays, so a by-ref capture of a short-lived local outlives even
/// more executions.
bool is_task_entry(const std::string& name) {
    static const std::unordered_set<std::string> names = {
        "async", "bulk_async", "when_all", "when_all_void",
        "post", "post_fn", "then", "add_node"};
    return names.count(name) > 0;
}

/// Future-producing roots for AMT005 (post is fire-and-forget by design).
bool is_future_producer(const std::string& name) {
    static const std::unordered_set<std::string> names = {
        "async", "when_all", "when_all_void"};
    return names.count(name) > 0;
}

struct entry_call {
    std::string name;
    std::size_t args_lo = 0;  ///< '('
    std::size_t args_hi = 0;  ///< matching ')'
};

std::vector<entry_call> find_entry_calls(const std::vector<token>& toks) {
    std::vector<entry_call> calls;
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].k != token::kind::ident || !is_task_entry(toks[i].text)) {
            continue;
        }
        if (!is(toks[i + 1], "(")) continue;
        // `then` only as a member call: `.then(` / `->then(`.
        if (toks[i].text == "then" &&
            (i == 0 || !(is(toks[i - 1], ".") || is(toks[i - 1], "->")))) {
            continue;
        }
        const std::size_t hi = match_bracket(toks, i + 1);
        if (hi >= toks.size()) continue;
        calls.push_back({toks[i].text, i + 1, hi});
    }
    return calls;
}

// ===================== AMT001 + AMT002 =====================

/// A lambda in argument position of a task entry point, attributed to the
/// innermost such call.
struct task_lambda {
    lambda_info lam;
    std::string entry;
};

std::vector<task_lambda> find_task_lambdas(const std::vector<token>& toks) {
    const auto calls = find_entry_calls(toks);
    std::vector<task_lambda> out;
    std::set<std::size_t> claimed;
    // Sort by span size ascending: innermost call claims its lambdas first.
    std::vector<const entry_call*> order;
    order.reserve(calls.size());
    for (const auto& c : calls) order.push_back(&c);
    std::sort(order.begin(), order.end(),
              [](const entry_call* a, const entry_call* b) {
                  const auto sa = a->args_hi - a->args_lo;
                  const auto sb = b->args_hi - b->args_lo;
                  return sa != sb ? sa < sb : a->args_lo < b->args_lo;
              });
    for (const entry_call* c : order) {
        for (std::size_t i = c->args_lo + 1; i < c->args_hi; ++i) {
            if (!is_lambda_intro(toks, i)) continue;
            if (claimed.count(i) > 0) continue;
            auto lam = parse_lambda(toks, i);
            if (!lam) continue;
            claimed.insert(i);
            out.push_back({*lam, c->name});
        }
    }
    std::sort(out.begin(), out.end(),
              [](const task_lambda& a, const task_lambda& b) {
                  return a.lam.intro_lo < b.lam.intro_lo;
              });
    return out;
}

void check_amt001(const std::vector<token>& toks,
                  const std::vector<task_lambda>& lambdas,
                  std::vector<diagnostic>& out) {
    for (const auto& tl : lambdas) {
        for (std::size_t i = tl.lam.intro_lo + 1; i < tl.lam.intro_hi; ++i) {
            if (is(toks[i], "&") || is(toks[i], "&&")) {
                out.push_back(
                    {"", toks[i].line, "AMT001",
                     "by-reference lambda capture passed to '" + tl.entry +
                         "' — the task may outlive the captured scope; "
                         "capture by value (decay-copy) or capture a "
                         "pointer"});
                break;
            }
        }
    }
}

/// Parameter names of `lam` whose declared type mentions future — the
/// continuation's antecedent, ready by construction, whose get() is an
/// unwrap rather than a block.
std::set<std::string> future_params(const std::vector<token>& toks,
                                    const lambda_info& lam) {
    std::set<std::string> names;
    if (lam.params_lo == 0) return names;
    std::size_t start = lam.params_lo + 1;
    for (std::size_t i = start; i <= lam.params_hi; ++i) {
        const bool end = i == lam.params_hi;
        if (!end && (is(toks[i], "(") || is(toks[i], "[") ||
                     is(toks[i], "{"))) {
            i = match_bracket(toks, i);
            continue;
        }
        if (end || is(toks[i], ",")) {
            bool is_future = false;
            std::string last_ident;
            for (std::size_t j = start; j < i; ++j) {
                if (toks[j].k != token::kind::ident) continue;
                if (toks[j].text == "future") is_future = true;
                last_ident = toks[j].text;
            }
            if (is_future && !last_ident.empty() && last_ident != "future") {
                names.insert(last_ident);
            }
            start = i + 1;
        }
    }
    return names;
}

void check_amt002(const std::vector<token>& toks,
                  const std::vector<task_lambda>& lambdas,
                  std::vector<diagnostic>& out) {
    // Bodies of task lambdas nested inside other task lambdas run *later*,
    // not within the enclosing task — skip their spans when scanning.
    std::vector<std::pair<std::size_t, std::size_t>> task_bodies;
    task_bodies.reserve(lambdas.size());
    for (const auto& tl : lambdas) {
        task_bodies.emplace_back(tl.lam.body_lo, tl.lam.body_hi);
    }

    static const std::unordered_set<std::string> blockers = {
        "get", "wait", "wait_for", "wait_until"};

    for (const auto& tl : lambdas) {
        const auto allowed = future_params(toks, tl.lam);
        for (std::size_t i = tl.lam.body_lo + 1; i < tl.lam.body_hi; ++i) {
            // Skip nested task-lambda bodies (analyzed in their own right).
            bool skipped = true;
            while (skipped) {
                skipped = false;
                for (const auto& [lo, hi] : task_bodies) {
                    if (lo > tl.lam.body_lo && lo <= i && i < hi) {
                        i = hi;
                        skipped = true;
                    }
                }
            }
            if (i >= tl.lam.body_hi) break;
            if (toks[i].k != token::kind::ident ||
                blockers.count(toks[i].text) == 0) {
                continue;
            }
            if (i == 0 || !(is(toks[i - 1], ".") || is(toks[i - 1], "->"))) {
                continue;
            }
            if (i + 1 >= toks.size() || !is(toks[i + 1], "(")) continue;
            // Receiver is the continuation's own (ready) future parameter?
            if (i >= 2 && toks[i - 2].k == token::kind::ident &&
                allowed.count(toks[i - 2].text) > 0) {
                continue;
            }
            // `x.get().then(...)` — the receiver was channel-like and get()
            // returned a future, not a value; that is not a block.
            const std::size_t close = match_bracket(toks, i + 1);
            if (close + 2 < toks.size() && is(toks[close + 1], ".") &&
                is(toks[close + 2], "then")) {
                continue;
            }
            out.push_back(
                {"", toks[i].line, "AMT002",
                 "blocking ." + toks[i].text + "() inside a task body — a "
                 "worker parked on a future it may itself need to run is a "
                 "starvation deadlock; chain with .then/when_all instead"});
        }
    }
}

// ===================== AMT003 =====================

/// domain member name -> field enum name (lulesh/fields.hpp).
const std::unordered_map<std::string, std::string>& field_members() {
    static const std::unordered_map<std::string, std::string> m = {
        {"x", "x"}, {"y", "y"}, {"z", "z"},
        {"xd", "xd"}, {"yd", "yd"}, {"zd", "zd"},
        {"xdd", "xdd"}, {"ydd", "ydd"}, {"zdd", "zdd"},
        {"fx", "fx"}, {"fy", "fy"}, {"fz", "fz"},
        {"nodalMass", "nodal_mass"}, {"symm_mask", "symm_mask"},
        {"e", "e"}, {"p", "p"}, {"q", "q"}, {"ql", "ql"}, {"qq", "qq"},
        {"v", "v"}, {"volo", "volo"}, {"delv", "delv"}, {"vdov", "vdov"},
        {"arealg", "arealg"}, {"ss", "ss"}, {"elemMass", "elem_mass"},
        {"elemBC", "elem_bc"},
        {"dxx", "dxx"}, {"dyy", "dyy"}, {"dzz", "dzz"},
        {"delv_xi", "delv_xi"}, {"delv_eta", "delv_eta"},
        {"delv_zeta", "delv_zeta"},
        {"delx_xi", "delx_xi"}, {"delx_eta", "delx_eta"},
        {"delx_zeta", "delx_zeta"},
        {"vnew", "vnew"}, {"vnewc", "vnewc"},
        {"fx_elem", "fx_elem"}, {"fy_elem", "fy_elem"},
        {"fz_elem", "fz_elem"},
        {"fx_elem_hg", "fx_elem_hg"}, {"fy_elem_hg", "fy_elem_hg"},
        {"fz_elem_hg", "fz_elem_hg"},
    };
    return m;
}

struct field_access {
    std::string field;
    bool write = false;
    int line = 0;
};

struct function_info {
    std::string name;
    std::size_t body_lo = 0;
    std::size_t body_hi = 0;
    std::vector<field_access> accesses;       ///< direct accesses
    std::map<std::string, bool> probes;       ///< field -> declared-as-write
    std::vector<std::string> callees;         ///< same-file call targets
    bool has_probe = false;
};

/// Finds namespace-scope function definitions: `name ( params ) [spec] {`.
std::vector<function_info> find_functions(const std::vector<token>& toks) {
    static const std::unordered_set<std::string> not_names = {
        "if", "for", "while", "switch", "catch", "return", "sizeof",
        "alignof", "decltype", "static_assert", "operator"};
    std::vector<function_info> fns;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!is(toks[i], "{") || i < 2) continue;
        // Walk back over ) + specifier tokens to find the parameter list.
        std::size_t j = i - 1;
        while (j > 0 && toks[j].k == token::kind::ident &&
               (toks[j].text == "const" || toks[j].text == "noexcept" ||
                toks[j].text == "override" || toks[j].text == "mutable")) {
            --j;
        }
        if (!is(toks[j], ")")) continue;
        // Match backwards to the opening '('.
        int depth = 0;
        std::size_t open = j;
        bool found = false;
        while (true) {
            const std::string& t = toks[open].text;
            if (t == ")" || t == "]" || t == "}") ++depth;
            if (t == "(" || t == "[" || t == "{") {
                --depth;
                if (depth == 0) {
                    found = true;
                    break;
                }
            }
            if (open == 0) break;
            --open;
        }
        if (!found || open == 0) continue;
        const token& name = toks[open - 1];
        if (name.k != token::kind::ident || not_names.count(name.text) > 0) {
            continue;
        }
        function_info fn;
        fn.name = name.text;
        fn.body_lo = i;
        fn.body_hi = match_bracket(toks, i);
        if (fn.body_hi >= toks.size()) continue;
        fns.push_back(std::move(fn));
    }
    return fns;
}

void collect_function_facts(const std::vector<token>& toks,
                            std::vector<function_info>& fns) {
    std::unordered_set<std::string> names;
    for (const auto& f : fns) names.insert(f.name);
    const auto& members = field_members();

    for (auto& fn : fns) {
        for (std::size_t i = fn.body_lo + 1; i < fn.body_hi; ++i) {
            // Nested function spans never occur (namespace-scope only), but
            // lambdas inside bodies are fine to scan as part of the body.
            if (toks[i].k != token::kind::ident) continue;
            const std::string& t = toks[i].text;

            // hazard_touch(field::NAME, WRITE, ...) / hazard_covers(...)
            if ((t == "hazard_touch" || t == "hazard_covers") &&
                i + 5 < toks.size() && is(toks[i + 1], "(") &&
                toks[i + 2].text == "field" && is(toks[i + 3], "::") &&
                toks[i + 4].k == token::kind::ident) {
                fn.has_probe = true;
                const std::string& f = toks[i + 4].text;
                bool write = false;
                if (is(toks[i + 5], ",") && i + 6 < toks.size()) {
                    write = toks[i + 6].text == "true";
                }
                auto [it, fresh] = fn.probes.try_emplace(f, write);
                if (!fresh) it->second = it->second || write;
                continue;
            }

            // Same-file call: known function name followed by '('.
            if (names.count(t) > 0 && i + 1 < toks.size() &&
                is(toks[i + 1], "(") && t != fn.name) {
                fn.callees.push_back(t);
                continue;
            }

            // Domain field access: recv . member [ ... ] (also ->).
            if (i >= 2 && (is(toks[i - 1], ".") || is(toks[i - 1], "->")) &&
                toks[i - 2].k == token::kind::ident && i + 1 < toks.size() &&
                is(toks[i + 1], "[")) {
                auto it = members.find(t);
                if (it == members.end()) continue;
                const std::size_t close = match_bracket(toks, i + 1);
                bool write = false;
                if (close + 1 < toks.size()) {
                    const std::string& nxt = toks[close + 1].text;
                    write = nxt == "=" || nxt == "+=" || nxt == "-=" ||
                            nxt == "*=" || nxt == "/=";
                }
                // The SIMD lane stores (lulesh/simd.hpp) take the address
                // of the first slot they write: store(&d.f[i], v), and the
                // region-list scatter its field's base: scatter(&d.f[0],
                // list, v).
                if (i >= 5 && is(toks[i - 3], "&") && is(toks[i - 4], "(") &&
                    (toks[i - 5].text == "store" ||
                     toks[i - 5].text == "store_corners" ||
                     toks[i - 5].text == "scatter")) {
                    write = true;
                }
                fn.accesses.push_back({it->second, write, toks[i].line});
            }
        }
    }
}

void check_amt003(const std::vector<token>& toks,
                  std::vector<diagnostic>& out) {
    auto fns = find_functions(toks);
    collect_function_facts(toks, fns);
    std::unordered_map<std::string, const function_info*> by_name;
    for (const auto& f : fns) by_name.emplace(f.name, &f);

    for (const auto& fn : fns) {
        if (!fn.has_probe) continue;  // probe-less helpers are checked via
                                      // their probe-bearing callers
        // Effective footprint: own accesses plus those of probe-less
        // callees, transitively (a probe-bearing callee declares for
        // itself, and its probes execute inside the same task scope).
        std::vector<field_access> footprint = fn.accesses;
        std::unordered_set<std::string> visited = {fn.name};
        std::vector<std::string> stack(fn.callees.begin(), fn.callees.end());
        while (!stack.empty()) {
            const std::string callee = stack.back();
            stack.pop_back();
            if (!visited.insert(callee).second) continue;
            auto it = by_name.find(callee);
            if (it == by_name.end() || it->second->has_probe) continue;
            const function_info* cf = it->second;
            footprint.insert(footprint.end(), cf->accesses.begin(),
                             cf->accesses.end());
            stack.insert(stack.end(), cf->callees.begin(),
                         cf->callees.end());
        }

        // First undeclared access per (field, mode) reports once.
        std::set<std::pair<std::string, bool>> reported;
        std::sort(footprint.begin(), footprint.end(),
                  [](const field_access& a, const field_access& b) {
                      return a.line < b.line;
                  });
        for (const auto& acc : footprint) {
            auto p = fn.probes.find(acc.field);
            const bool covered =
                p != fn.probes.end() && (!acc.write || p->second);
            if (covered) continue;
            if (!reported.insert({acc.field, acc.write}).second) continue;
            out.push_back(
                {"", acc.line, "AMT003",
                 "kernel '" + fn.name + "' " +
                     (acc.write ? "writes" : "reads") + " field '" +
                     acc.field + "' without declaring it — add "
                     "hazard_touch(field::" + acc.field +
                     ", ...) for contiguous ranges or hazard_covers(field::" +
                     acc.field + ", ...) for indirect/closure accesses"});
        }
    }
}

// ===================== AMT004 =====================

const std::unordered_set<std::string>& immutable_markers() {
    static const std::unordered_set<std::string> m = {
        "const", "constexpr", "consteval", "constinit", "thread_local",
        "atomic", "atomic_flag", "mutex", "shared_mutex", "recursive_mutex",
        "once_flag", "condition_variable"};
    return m;
}

void check_amt004(const std::vector<token>& toks,
                  std::vector<diagnostic>& out) {
    // (a) `static` declarations anywhere (namespace scope or locals).
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].k != token::kind::ident || toks[i].text != "static") {
            continue;
        }
        // Scan the declaration up to `;`, `=`, or `{` at bracket depth 0.
        std::size_t j = i + 1;
        std::string last_ident;
        bool ends_with_paren = false;
        bool safe = false;
        while (j < toks.size()) {
            const std::string& t = toks[j].text;
            if (t == ";" || t == "=" || t == "{") break;
            if (t == "(" || t == "[") {
                // A parameter list directly after the declarator name means
                // a function; a subscript means an array declarator.
                const std::size_t close = match_bracket(toks, j);
                ends_with_paren = t == "(";
                j = close + 1;
                continue;
            }
            if (t == "noexcept") {
                // Part of a function declarator (`static f() noexcept`);
                // keep the parameter-list evidence intact.
                ++j;
                continue;
            }
            if (t == "&" || t == "&&") {
                // A reference declarator: the static itself can never be
                // reseated, so it is not mutable state — the referent's
                // own declaration is where mutability is policed.  This
                // is the metric-handle caching idiom
                // (`static auto& h = metrics::get_histogram(...)`).
                safe = true;
            }
            if (immutable_markers().count(t) > 0) safe = true;
            if (toks[j].k == token::kind::ident) last_ident = t;
            ends_with_paren = false;
            ++j;
        }
        if (j >= toks.size() || safe || ends_with_paren) continue;
        if (last_ident.empty()) continue;
        out.push_back(
            {"", toks[i].line, "AMT004",
             "mutable static state '" + last_ident + "' in task/kernel "
             "code — tasks of one wave run concurrently; use std::atomic, "
             "thread_local, or task-local scratch (paper trick T5)"});
    }

    // (b) mutable namespace-scope variables.  Track which braces open
    // namespace scopes; declarations directly inside them are candidates.
    static const std::unordered_set<std::string> decl_excludes = {
        "namespace", "using", "typedef", "template", "struct", "class",
        "enum", "union", "friend", "extern", "static", "static_assert",
        "inline", "void", "operator", "public", "private", "protected",
        "requires", "concept"};
    std::vector<bool> ns_stack = {true};  // file scope counts as namespace
    std::size_t i = 0;
    while (i < toks.size()) {
        const std::string& t = toks[i].text;
        if (t == "{") {
            // Namespace brace: `namespace [ident[::ident...]] {`.
            std::size_t j = i;
            while (j > 0 && (toks[j - 1].k == token::kind::ident ||
                             is(toks[j - 1], "::"))) {
                --j;
                if (toks[j].text == "namespace") break;
            }
            ns_stack.push_back(j < i && toks[j].text == "namespace");
            ++i;
            continue;
        }
        if (t == "}") {
            if (ns_stack.size() > 1) ns_stack.pop_back();
            ++i;
            continue;
        }
        if (!ns_stack.back()) {
            ++i;
            continue;
        }
        // At namespace scope: parse one declaration-ish region up to `;`
        // or `{` (function/class body) at depth 0.
        const std::size_t start = i;
        bool has_eq = false;
        bool paren_before_end = false;
        bool safe = false;
        std::string last_ident;
        std::size_t idents = 0;
        std::size_t j = i;
        while (j < toks.size()) {
            const std::string& u = toks[j].text;
            if (u == ";" || u == "{") break;
            if (u == "(" || u == "[") {
                if (!has_eq) paren_before_end = u == "(";
                j = match_bracket(toks, j) + 1;
                continue;
            }
            if (u == "=") has_eq = true;
            // Reference declarators are unreseatable, hence not mutable
            // state themselves (same as the local-static case above);
            // `&` after `=` is an address-of in the initializer, ignore.
            if (!has_eq && (u == "&" || u == "&&")) safe = true;
            if (immutable_markers().count(u) > 0) safe = true;
            if (toks[j].k == token::kind::ident) {
                if (!has_eq) last_ident = u;
                ++idents;
            }
            ++j;
        }
        if (j >= toks.size()) break;
        const bool is_decl_end = is(toks[j], ";");
        const bool excluded =
            toks[start].k != token::kind::ident ||
            decl_excludes.count(toks[start].text) > 0;
        if (is_decl_end && !excluded && !safe && !paren_before_end &&
            idents >= 2 && !last_ident.empty()) {
            out.push_back(
                {"", toks[start].line, "AMT004",
                 "mutable namespace-scope state '" + last_ident +
                     "' reachable from task/kernel code — use std::atomic "
                     "or pass state through task arguments"});
        }
        // Skip the region (and a `{...}` body when present).
        if (is(toks[j], "{")) {
            i = j;  // reprocess the brace to push scope correctly
        } else {
            i = j + 1;
        }
    }
}

// ===================== AMT005 =====================

void check_amt005(const std::vector<token>& toks,
                  std::vector<diagnostic>& out) {
    static const std::unordered_set<std::string> consumers = {
        "then", "get", "wait", "wait_for", "wait_until"};
    for (std::size_t i = 0; i < toks.size(); ++i) {
        // Statement start: begin of file or after `;`, `{`, `}`.
        if (i > 0 && !(is(toks[i - 1], ";") || is(toks[i - 1], "{") ||
                       is(toks[i - 1], "}"))) {
            continue;
        }
        // Qualified root name: a::b::c
        std::size_t j = i;
        std::string root;
        while (j + 1 < toks.size() && toks[j].k == token::kind::ident &&
               is(toks[j + 1], "::")) {
            j += 2;
        }
        if (j >= toks.size() || toks[j].k != token::kind::ident) continue;
        root = toks[j].text;
        if (!is_future_producer(root)) continue;
        if (j + 1 >= toks.size() || !is(toks[j + 1], "(")) continue;
        std::size_t k = match_bracket(toks, j + 1);
        if (k >= toks.size()) continue;
        // Postfix chain: .member(...) / ->member(...)
        bool consumed = false;
        std::size_t end = k + 1;
        while (end + 1 < toks.size() &&
               (is(toks[end], ".") || is(toks[end], "->")) &&
               toks[end + 1].k == token::kind::ident) {
            if (consumers.count(toks[end + 1].text) > 0) consumed = true;
            end += 2;
            if (end < toks.size() && is(toks[end], "(")) {
                end = match_bracket(toks, end) + 1;
            }
        }
        if (end < toks.size() && is(toks[end], ";") && !consumed) {
            out.push_back(
                {"", toks[j].line, "AMT005",
                 "future returned by '" + root + "' is discarded — the "
                 "continuation is lost from the pre-built task graph; "
                 "chain it with .then/when_all, or annotate "
                 "'// amtlint: allow(AMT005) detached: <why>'"});
        }
    }
}

// ===================== AMT006 =====================

/// `std::`-qualified names that bypass the amt/atomic.hpp shim.  The exact
/// `atomic`/`atomic_flag`/`atomic_ref` templates, the fences, and every
/// `memory_order*` constant; `std::mutex` and friends are deliberately NOT
/// flagged — the model collapses shim-free critical sections soundly.
bool is_raw_atomic_name(const std::string& name) {
    return name == "atomic" || name == "atomic_flag" ||
           name == "atomic_ref" || name == "atomic_thread_fence" ||
           name == "atomic_signal_fence" ||
           name.rfind("memory_order", 0) == 0;
}

void check_amt006(const std::vector<token>& toks,
                  std::vector<diagnostic>& out) {
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].k != token::kind::ident || toks[i].text != "std") {
            continue;
        }
        if (!is(toks[i + 1], "::")) continue;
        const token& t = toks[i + 2];
        if (t.k != token::kind::ident || !is_raw_atomic_name(t.text)) {
            continue;
        }
        out.push_back(
            {"", t.line, "AMT006",
             "raw 'std::" + t.text + "' bypasses the model-check shim — "
             "use amt::" + t.text + " from amt/atomic.hpp so amtcheck "
             "(AMT_MODEL_CHECK builds) can schedule through the operation"});
    }
}

}  // namespace

std::vector<diagnostic> lint_source(const std::string& file,
                                    const std::string& contents,
                                    const config& cfg) {
    suppression_map sup;
    const auto toks = tokenize(contents, sup);

    std::vector<diagnostic> diags;
    if (!cfg.atomics_only) {
        const auto lambdas = find_task_lambdas(toks);
        check_amt001(toks, lambdas, diags);
        check_amt002(toks, lambdas, diags);
        if (cfg.kernel_rules) {
            check_amt003(toks, diags);
            check_amt004(toks, diags);
        }
        check_amt005(toks, diags);
    }
    check_amt006(toks, diags);

    std::vector<diagnostic> kept;
    for (auto& d : diags) {
        d.file = file;
        auto it = sup.find(d.rule);
        if (it != sup.end() && it->second.count(d.line) > 0) continue;
        kept.push_back(std::move(d));
    }
    std::sort(kept.begin(), kept.end(),
              [](const diagnostic& a, const diagnostic& b) {
                  if (a.line != b.line) return a.line < b.line;
                  if (a.rule != b.rule) return a.rule < b.rule;
                  return a.message < b.message;
              });
    return kept;
}

}  // namespace amtlint
