#include "hlr/parser.hh"

#include <sstream>

#include "hlr/lexer.hh"
#include "support/logging.hh"

namespace uhm::hlr
{

struct Parser::NestGuard
{
    Parser &parser;

    explicit NestGuard(Parser &p) : parser(p)
    {
        if (++parser.depth_ > maxNestingDepth) {
            fatal("%s: nesting deeper than %u levels",
                  parser.peek().loc.toString().c_str(), maxNestingDepth);
        }
    }
    ~NestGuard() { --parser.depth_; }
};

Parser::Parser(std::vector<Token> tokens) : tokens_(std::move(tokens))
{
    uhm_assert(!tokens_.empty() &&
               tokens_.back().kind == Tok::EndOfFile,
               "token stream must end with EndOfFile");
}

const Token &
Parser::peekAhead() const
{
    size_t i = pos_ + 1;
    return tokens_[std::min(i, tokens_.size() - 1)];
}

Token
Parser::advance()
{
    Token t = tokens_[pos_];
    if (pos_ + 1 < tokens_.size())
        ++pos_;
    return t;
}

bool
Parser::match(Tok kind)
{
    if (!check(kind))
        return false;
    advance();
    return true;
}

Token
Parser::expect(Tok kind, const char *context)
{
    if (!check(kind)) {
        fatal("%s: expected %s %s, found %s",
              peek().loc.toString().c_str(), tokName(kind), context,
              tokName(peek().kind));
    }
    return advance();
}

AstProgram
Parser::parseProgram()
{
    AstProgram prog;
    expect(Tok::KwProgram, "at start of program");
    prog.name = expect(Tok::Ident, "as program name").text;
    expect(Tok::Semi, "after program name");
    prog.main = parseBlock();
    expect(Tok::Dot, "at end of program");
    expect(Tok::EndOfFile, "after final '.'");
    return prog;
}

ExprPtr
Parser::parseExprOnly()
{
    ExprPtr e = parseExpr();
    expect(Tok::EndOfFile, "after expression");
    return e;
}

Block
Parser::parseBlock()
{
    NestGuard nest(*this);
    Block block;
    for (;;) {
        if (match(Tok::KwVar)) {
            parseVarDecls(block);
        } else if (match(Tok::KwConst)) {
            parseConstDecls(block);
        } else if (check(Tok::KwProc) || check(Tok::KwFunc)) {
            bool is_func = advance().kind == Tok::KwFunc;
            block.procs.push_back(parseProcDecl(is_func));
        } else {
            break;
        }
    }
    expect(Tok::KwBegin, "at start of block body");
    block.body = parseStmts();
    expect(Tok::KwEnd, "at end of block body");
    return block;
}

void
Parser::parseVarDecls(Block &block)
{
    do {
        VarDecl var;
        Token name = expect(Tok::Ident, "as variable name");
        var.name = name.text;
        var.loc = name.loc;
        if (match(Tok::LBracket)) {
            Token size = expect(Tok::Number, "as array size");
            if (size.value <= 0) {
                fatal("%s: array size must be positive",
                      size.loc.toString().c_str());
            }
            var.arraySize = static_cast<uint32_t>(size.value);
            expect(Tok::RBracket, "after array size");
        }
        block.vars.push_back(std::move(var));
    } while (match(Tok::Comma));
    expect(Tok::Semi, "after variable declarations");
}

void
Parser::parseConstDecls(Block &block)
{
    do {
        ConstDecl decl;
        Token name = expect(Tok::Ident, "as constant name");
        decl.name = name.text;
        decl.loc = name.loc;
        expect(Tok::Eq, "in constant declaration");
        bool negative = match(Tok::Minus);
        Token value = expect(Tok::Number, "as constant value");
        decl.value = negative ? -value.value : value.value;
        block.consts.push_back(std::move(decl));
    } while (match(Tok::Comma));
    expect(Tok::Semi, "after constant declarations");
}

ProcDecl
Parser::parseProcDecl(bool is_func)
{
    ProcDecl proc;
    proc.isFunc = is_func;
    Token name = expect(Tok::Ident, "as procedure name");
    proc.name = name.text;
    proc.loc = name.loc;
    expect(Tok::LParen, "after procedure name");
    if (!check(Tok::RParen)) {
        do {
            proc.params.push_back(
                expect(Tok::Ident, "as parameter name").text);
        } while (match(Tok::Comma));
    }
    expect(Tok::RParen, "after parameter list");
    expect(Tok::Semi, "after procedure header");
    proc.block = std::make_unique<Block>(parseBlock());
    expect(Tok::Semi, "after procedure body");
    return proc;
}

std::vector<StmtPtr>
Parser::parseStmts()
{
    NestGuard nest(*this);
    std::vector<StmtPtr> stmts;
    while (!check(Tok::KwEnd) && !check(Tok::KwFi) && !check(Tok::KwOd) &&
           !check(Tok::KwElse) && !check(Tok::KwUntil) &&
           !check(Tok::EndOfFile)) {
        stmts.push_back(parseStmt());
        expect(Tok::Semi, "after statement");
    }
    return stmts;
}

StmtPtr
Parser::parseStmt()
{
    auto stmt = std::make_unique<Stmt>();
    stmt->loc = peek().loc;

    switch (peek().kind) {
      case Tok::Ident: {
        stmt->kind = Stmt::Kind::Assign;
        stmt->name = advance().text;
        ExprPtr index;
        if (match(Tok::LBracket)) {
            index = parseExpr();
            expect(Tok::RBracket, "after array index");
        }
        expect(Tok::Assign, "in assignment");
        stmt->exprs.push_back(parseExpr());
        if (index)
            stmt->exprs.push_back(std::move(index));
        return stmt;
      }
      case Tok::KwIf: {
        advance();
        stmt->kind = Stmt::Kind::If;
        stmt->exprs.push_back(parseExpr());
        expect(Tok::KwThen, "in if statement");
        stmt->body = parseStmts();
        if (match(Tok::KwElse))
            stmt->elseBody = parseStmts();
        expect(Tok::KwFi, "at end of if statement");
        return stmt;
      }
      case Tok::KwWhile: {
        advance();
        stmt->kind = Stmt::Kind::While;
        stmt->exprs.push_back(parseExpr());
        expect(Tok::KwDo, "in while statement");
        stmt->body = parseStmts();
        expect(Tok::KwOd, "at end of while statement");
        return stmt;
      }
      case Tok::KwFor: {
        advance();
        stmt->kind = Stmt::Kind::For;
        stmt->name = expect(Tok::Ident, "as loop variable").text;
        expect(Tok::Assign, "in for statement");
        stmt->exprs.push_back(parseExpr());
        expect(Tok::KwTo, "in for statement");
        stmt->exprs.push_back(parseExpr());
        expect(Tok::KwDo, "in for statement");
        stmt->body = parseStmts();
        expect(Tok::KwOd, "at end of for statement");
        return stmt;
      }
      case Tok::KwRepeat: {
        advance();
        stmt->kind = Stmt::Kind::Repeat;
        stmt->body = parseStmts();
        expect(Tok::KwUntil, "at end of repeat statement");
        stmt->exprs.push_back(parseExpr());
        return stmt;
      }
      case Tok::KwCall: {
        advance();
        stmt->kind = Stmt::Kind::Call;
        stmt->name = expect(Tok::Ident, "as procedure name").text;
        expect(Tok::LParen, "in call statement");
        stmt->exprs = parseArgs();
        expect(Tok::RParen, "after call arguments");
        return stmt;
      }
      case Tok::KwWrite: {
        advance();
        stmt->kind = Stmt::Kind::Write;
        stmt->exprs.push_back(parseExpr());
        return stmt;
      }
      case Tok::KwRead: {
        advance();
        stmt->kind = Stmt::Kind::Read;
        stmt->name = expect(Tok::Ident, "as read target").text;
        if (match(Tok::LBracket)) {
            stmt->exprs.push_back(parseExpr());
            expect(Tok::RBracket, "after array index");
        }
        return stmt;
      }
      case Tok::KwReturn: {
        advance();
        stmt->kind = Stmt::Kind::Return;
        if (!check(Tok::Semi))
            stmt->exprs.push_back(parseExpr());
        return stmt;
      }
      default:
        fatal("%s: expected a statement, found %s",
              peek().loc.toString().c_str(), tokName(peek().kind));
    }
}

std::vector<ExprPtr>
Parser::parseArgs()
{
    std::vector<ExprPtr> args;
    if (check(Tok::RParen))
        return args;
    do {
        args.push_back(parseExpr());
    } while (match(Tok::Comma));
    return args;
}

ExprPtr
Parser::parseExpr()
{
    NestGuard nest(*this);
    return parseOr();
}

namespace
{

ExprPtr
makeBinary(AstOp op, ExprPtr lhs, ExprPtr rhs, SourceLoc loc)
{
    auto e = std::make_unique<Expr>();
    e->kind = Expr::Kind::Binary;
    e->op = op;
    e->loc = loc;
    e->kids.push_back(std::move(lhs));
    e->kids.push_back(std::move(rhs));
    return e;
}

} // anonymous namespace

ExprPtr
Parser::parseOr()
{
    ExprPtr e = parseAnd();
    while (check(Tok::KwOr)) {
        SourceLoc loc = advance().loc;
        e = makeBinary(AstOp::Or, std::move(e), parseAnd(), loc);
    }
    return e;
}

ExprPtr
Parser::parseAnd()
{
    ExprPtr e = parseRel();
    while (check(Tok::KwAnd)) {
        SourceLoc loc = advance().loc;
        e = makeBinary(AstOp::And, std::move(e), parseRel(), loc);
    }
    return e;
}

ExprPtr
Parser::parseRel()
{
    ExprPtr e = parseAdd();
    AstOp op;
    switch (peek().kind) {
      case Tok::Eq: op = AstOp::Eq; break;
      case Tok::Ne: op = AstOp::Ne; break;
      case Tok::Lt: op = AstOp::Lt; break;
      case Tok::Le: op = AstOp::Le; break;
      case Tok::Gt: op = AstOp::Gt; break;
      case Tok::Ge: op = AstOp::Ge; break;
      default: return e;
    }
    SourceLoc loc = advance().loc;
    return makeBinary(op, std::move(e), parseAdd(), loc);
}

ExprPtr
Parser::parseAdd()
{
    ExprPtr e = parseMul();
    for (;;) {
        AstOp op;
        if (check(Tok::Plus))
            op = AstOp::Add;
        else if (check(Tok::Minus))
            op = AstOp::Sub;
        else
            break;
        SourceLoc loc = advance().loc;
        e = makeBinary(op, std::move(e), parseMul(), loc);
    }
    return e;
}

ExprPtr
Parser::parseMul()
{
    ExprPtr e = parseUnary();
    for (;;) {
        AstOp op;
        if (check(Tok::Star))
            op = AstOp::Mul;
        else if (check(Tok::Slash))
            op = AstOp::Div;
        else if (check(Tok::Percent))
            op = AstOp::Mod;
        else
            break;
        SourceLoc loc = advance().loc;
        e = makeBinary(op, std::move(e), parseUnary(), loc);
    }
    return e;
}

ExprPtr
Parser::parseUnary()
{
    if (check(Tok::Minus) || check(Tok::KwNot)) {
        NestGuard nest(*this);
        Token t = advance();
        auto e = std::make_unique<Expr>();
        e->kind = Expr::Kind::Unary;
        e->op = t.kind == Tok::Minus ? AstOp::Neg : AstOp::Not;
        e->loc = t.loc;
        e->kids.push_back(parseUnary());
        return e;
    }
    return parsePrimary();
}

ExprPtr
Parser::parsePrimary()
{
    auto e = std::make_unique<Expr>();
    e->loc = peek().loc;

    if (check(Tok::Number)) {
        e->kind = Expr::Kind::Number;
        e->value = advance().value;
        return e;
    }
    if (match(Tok::LParen)) {
        e = parseExpr();
        expect(Tok::RParen, "after parenthesized expression");
        return e;
    }
    if (check(Tok::Ident)) {
        e->name = advance().text;
        if (match(Tok::LBracket)) {
            e->kind = Expr::Kind::Index;
            e->kids.push_back(parseExpr());
            expect(Tok::RBracket, "after array index");
        } else if (match(Tok::LParen)) {
            e->kind = Expr::Kind::Call;
            e->kids = parseArgs();
            expect(Tok::RParen, "after call arguments");
        } else {
            e->kind = Expr::Kind::Var;
        }
        return e;
    }
    fatal("%s: expected an expression, found %s",
          peek().loc.toString().c_str(), tokName(peek().kind));
}

AstProgram
parse(const std::string &source)
{
    Lexer lexer(source);
    Parser parser(lexer.lexAll());
    return parser.parseProgram();
}

std::string
toString(const Expr &expr)
{
    std::ostringstream os;
    switch (expr.kind) {
      case Expr::Kind::Number:
        os << expr.value;
        break;
      case Expr::Kind::Var:
        os << expr.name;
        break;
      case Expr::Kind::Index:
        os << expr.name << "[" << toString(*expr.kids[0]) << "]";
        break;
      case Expr::Kind::Call: {
        os << expr.name << "(";
        for (size_t i = 0; i < expr.kids.size(); ++i)
            os << (i ? ", " : "") << toString(*expr.kids[i]);
        os << ")";
        break;
      }
      case Expr::Kind::Unary: {
        os << (expr.op == AstOp::Neg ? "-" : "not ")
           << toString(*expr.kids[0]);
        break;
      }
      case Expr::Kind::Binary: {
        const char *sym = "?";
        switch (expr.op) {
          case AstOp::Add: sym = "+"; break;
          case AstOp::Sub: sym = "-"; break;
          case AstOp::Mul: sym = "*"; break;
          case AstOp::Div: sym = "/"; break;
          case AstOp::Mod: sym = "%"; break;
          case AstOp::Eq:  sym = "="; break;
          case AstOp::Ne:  sym = "<>"; break;
          case AstOp::Lt:  sym = "<"; break;
          case AstOp::Le:  sym = "<="; break;
          case AstOp::Gt:  sym = ">"; break;
          case AstOp::Ge:  sym = ">="; break;
          case AstOp::And: sym = "and"; break;
          case AstOp::Or:  sym = "or"; break;
          default: break;
        }
        os << "(" << toString(*expr.kids[0]) << " " << sym << " "
           << toString(*expr.kids[1]) << ")";
        break;
      }
    }
    return os.str();
}

} // namespace uhm::hlr
