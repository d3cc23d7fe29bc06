/**
 * @file
 * Recursive-descent parser for the Contour language.
 *
 * Grammar:
 * @verbatim
 *   program  := 'program' IDENT ';' block '.'
 *   block    := { decl } 'begin' stmts 'end'
 *   decl     := 'var' vardecl { ',' vardecl } ';'
 *             | 'const' IDENT '=' ['-'] NUMBER { ',' ... } ';'
 *             | ('proc'|'func') IDENT '(' [ params ] ')' ';' block ';'
 *   vardecl  := IDENT [ '[' NUMBER ']' ]
 *   params   := IDENT { ',' IDENT }
 *   stmts    := { stmt ';' }
 *   stmt     := IDENT [ '[' expr ']' ] ':=' expr
 *             | 'if' expr 'then' stmts [ 'else' stmts ] 'fi'
 *             | 'while' expr 'do' stmts 'od'
 *             | 'for' IDENT ':=' expr 'to' expr 'do' stmts 'od'
 *             | 'repeat' stmts 'until' expr
 *             | 'call' IDENT '(' [ args ] ')'
 *             | 'write' expr | 'read' IDENT [ '[' expr ']' ]
 *             | 'return' [ expr ]
 *   expr     := or-expr with the usual precedence ladder:
 *               or < and < relational < additive < multiplicative < unary
 *   primary  := NUMBER | IDENT | IDENT '[' expr ']' | IDENT '(' args ')'
 *             | '(' expr ')'
 * @endverbatim
 *
 * 'and'/'or'/'not' are boolean operators over truthiness (nonzero is
 * true) and do not short-circuit.
 */

#ifndef UHM_HLR_PARSER_HH
#define UHM_HLR_PARSER_HH

#include <string>
#include <vector>

#include "hlr/ast.hh"
#include "hlr/token.hh"

namespace uhm::hlr
{

/** Parse errors raise FatalError with "line:col: message". */
class Parser
{
  public:
    explicit Parser(std::vector<Token> tokens);

    /**
     * Deepest nesting the parser accepts, counted over blocks,
     * statement lists, expressions and unary operators together. The
     * parser, compiler and interpreter all recurse over the nesting, so
     * deeper input is a parse error rather than a stack overflow.
     */
    static constexpr unsigned maxNestingDepth = 256;

    /** Parse a whole program. */
    AstProgram parseProgram();

    /** Parse a standalone expression (testing hook). */
    ExprPtr parseExprOnly();

  private:
    const Token &peek() const { return tokens_[pos_]; }
    const Token &peekAhead() const;
    Token advance();
    bool check(Tok kind) const { return peek().kind == kind; }
    bool match(Tok kind);
    Token expect(Tok kind, const char *context);

    Block parseBlock();
    void parseVarDecls(Block &block);
    void parseConstDecls(Block &block);
    ProcDecl parseProcDecl(bool is_func);
    std::vector<StmtPtr> parseStmts();
    StmtPtr parseStmt();
    std::vector<ExprPtr> parseArgs();

    ExprPtr parseExpr();
    ExprPtr parseOr();
    ExprPtr parseAnd();
    ExprPtr parseRel();
    ExprPtr parseAdd();
    ExprPtr parseMul();
    ExprPtr parseUnary();
    ExprPtr parsePrimary();

    /** Opens one nesting level for its scope; fatal past the cap. */
    struct NestGuard;

    std::vector<Token> tokens_;
    size_t pos_ = 0;
    /** Nesting levels open right now. */
    unsigned depth_ = 0;
};

/** Convenience: lex and parse @p source. */
AstProgram parse(const std::string &source);

} // namespace uhm::hlr

#endif // UHM_HLR_PARSER_HH
