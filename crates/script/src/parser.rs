//! The Rua parser: recursive descent with precedence climbing.

use std::rc::Rc;

use crate::ast::*;
use crate::error::RuaError;
use crate::lexer::{lex, SpannedToken, Token};
use crate::Result;

/// Parses a complete chunk (a block) of Rua source.
///
/// # Errors
///
/// Returns a parse-stage [`RuaError`] with the offending line.
pub fn parse(source: &str) -> Result<Block> {
    let tokens = lex(source)?;
    let mut p = Parser { tokens, pos: 0 };
    let block = p.parse_block()?;
    if p.pos < p.tokens.len() {
        return Err(p.error(format!("unexpected {}", p.tokens[p.pos].token)));
    }
    Ok(block)
}

struct Parser {
    tokens: Vec<SpannedToken>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn line(&self) -> usize {
        self.tokens
            .get(self.pos)
            .or_else(|| self.tokens.last())
            .map(|t| t.line)
            .unwrap_or(1)
    }

    fn error(&self, message: impl Into<String>) -> RuaError {
        RuaError::parse(message, self.line())
    }

    fn bump(&mut self) -> Result<Token> {
        let tok = self
            .tokens
            .get(self.pos)
            .map(|t| t.token.clone())
            .ok_or_else(|| self.error("unexpected end of input"))?;
        self.pos += 1;
        Ok(tok)
    }

    fn eat(&mut self, tok: &Token) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: Token) -> Result<()> {
        let line = self.line();
        match self.bump() {
            Ok(found) if found == tok => Ok(()),
            Ok(found) => Err(RuaError::parse(
                format!("expected {tok}, found {found}"),
                line,
            )),
            Err(_) => Err(RuaError::parse(
                format!("expected {tok}, found end of input"),
                line,
            )),
        }
    }

    fn expect_name(&mut self) -> Result<Name> {
        let line = self.line();
        match self.bump() {
            Ok(Token::Name(n)) => Ok(n),
            Ok(found) => Err(RuaError::parse(
                format!("expected a name, found {found}"),
                line,
            )),
            Err(_) => Err(RuaError::parse("expected a name", line)),
        }
    }

    /// True when the current token terminates a block.
    fn at_block_end(&self) -> bool {
        matches!(
            self.peek(),
            None | Some(Token::End) | Some(Token::Else) | Some(Token::Elseif) | Some(Token::Until)
        )
    }

    fn parse_block(&mut self) -> Result<Block> {
        let mut stats = Vec::new();
        while !self.at_block_end() {
            if self.eat(&Token::Semi) {
                continue;
            }
            let stat = self.parse_stat()?;
            let is_return = matches!(stat.kind, StatKind::Return(_));
            stats.push(stat);
            if is_return {
                // `return` closes the block (Lua rule); allow a `;`.
                self.eat(&Token::Semi);
                break;
            }
        }
        Ok(Block { stats })
    }

    fn parse_stat(&mut self) -> Result<Stat> {
        let line = self.line();
        let kind = match self.peek() {
            Some(Token::Local) => {
                self.bump()?;
                if self.eat(&Token::Function) {
                    let name = self.expect_name()?;
                    let body = self.parse_func_body(Some(name.to_string()), false)?;
                    // `local function f` declares f before the body, so
                    // the closure can recurse; model it as local + assign.
                    StatKind::Local {
                        names: vec![name.clone()],
                        exprs: vec![Expr {
                            kind: ExprKind::Function(Rc::new(body)),
                            line,
                        }],
                    }
                } else {
                    let mut names = vec![self.expect_name()?];
                    while self.eat(&Token::Comma) {
                        names.push(self.expect_name()?);
                    }
                    let exprs = if self.eat(&Token::Assign) {
                        self.parse_expr_list()?
                    } else {
                        Vec::new()
                    };
                    StatKind::Local { names, exprs }
                }
            }
            Some(Token::If) => {
                self.bump()?;
                let mut arms = Vec::new();
                let cond = self.parse_expr()?;
                self.expect(Token::Then)?;
                let body = self.parse_block()?;
                arms.push((cond, body));
                let mut else_body = None;
                loop {
                    if self.eat(&Token::Elseif) {
                        let cond = self.parse_expr()?;
                        self.expect(Token::Then)?;
                        let body = self.parse_block()?;
                        arms.push((cond, body));
                    } else if self.eat(&Token::Else) {
                        else_body = Some(self.parse_block()?);
                        self.expect(Token::End)?;
                        break;
                    } else {
                        self.expect(Token::End)?;
                        break;
                    }
                }
                StatKind::If { arms, else_body }
            }
            Some(Token::While) => {
                self.bump()?;
                let cond = self.parse_expr()?;
                self.expect(Token::Do)?;
                let body = self.parse_block()?;
                self.expect(Token::End)?;
                StatKind::While { cond, body }
            }
            Some(Token::Repeat) => {
                self.bump()?;
                let body = self.parse_block()?;
                self.expect(Token::Until)?;
                let cond = self.parse_expr()?;
                StatKind::Repeat { body, cond }
            }
            Some(Token::For) => {
                self.bump()?;
                let first = self.expect_name()?;
                if self.eat(&Token::Assign) {
                    let start = self.parse_expr()?;
                    self.expect(Token::Comma)?;
                    let stop = self.parse_expr()?;
                    let step = if self.eat(&Token::Comma) {
                        Some(self.parse_expr()?)
                    } else {
                        None
                    };
                    self.expect(Token::Do)?;
                    let body = self.parse_block()?;
                    self.expect(Token::End)?;
                    StatKind::NumericFor {
                        var: first,
                        start,
                        stop,
                        step,
                        body,
                    }
                } else {
                    let mut names = vec![first];
                    while self.eat(&Token::Comma) {
                        names.push(self.expect_name()?);
                    }
                    self.expect(Token::In)?;
                    let exprs = self.parse_expr_list()?;
                    self.expect(Token::Do)?;
                    let body = self.parse_block()?;
                    self.expect(Token::End)?;
                    StatKind::GenericFor { names, exprs, body }
                }
            }
            Some(Token::Do) => {
                self.bump()?;
                let body = self.parse_block()?;
                self.expect(Token::End)?;
                StatKind::Do(body)
            }
            Some(Token::Return) => {
                self.bump()?;
                let exprs = if self.at_block_end() || self.peek() == Some(&Token::Semi) {
                    Vec::new()
                } else {
                    self.parse_expr_list()?
                };
                StatKind::Return(exprs)
            }
            Some(Token::Break) => {
                self.bump()?;
                StatKind::Break
            }
            Some(Token::Function) => {
                self.bump()?;
                // function Name{.field}[:method](params) body end
                let base = self.expect_name()?;
                let mut target = Expr {
                    kind: ExprKind::Name(base.clone()),
                    line,
                };
                let mut path = base.to_string();
                let mut is_method = false;
                loop {
                    if self.eat(&Token::Dot) {
                        let field = self.expect_name()?;
                        path = format!("{path}.{field}");
                        target = index_expr(target, str_expr(field, line), line);
                    } else if self.eat(&Token::Colon) {
                        let method = self.expect_name()?;
                        path = format!("{path}:{method}");
                        target = index_expr(target, str_expr(method, line), line);
                        is_method = true;
                        break;
                    } else {
                        break;
                    }
                }
                let body = self.parse_func_body(Some(path), is_method)?;
                let func = Expr {
                    kind: ExprKind::Function(Rc::new(body)),
                    line,
                };
                let lvalue = match target.kind {
                    ExprKind::Name(n) => LValue::Name(n),
                    ExprKind::Index { obj, key } => LValue::Index {
                        obj: *obj,
                        key: *key,
                    },
                    _ => unreachable!("function name target is a name or index"),
                };
                StatKind::Assign {
                    targets: vec![lvalue],
                    exprs: vec![func],
                }
            }
            _ => {
                // Expression statement: either a call or an assignment.
                let expr = self.parse_suffixed()?;
                if self.peek() == Some(&Token::Assign) || self.peek() == Some(&Token::Comma) {
                    let mut targets = vec![self.to_lvalue(expr)?];
                    while self.eat(&Token::Comma) {
                        let next = self.parse_suffixed()?;
                        targets.push(self.to_lvalue(next)?);
                    }
                    self.expect(Token::Assign)?;
                    let exprs = self.parse_expr_list()?;
                    StatKind::Assign { targets, exprs }
                } else {
                    match expr.kind {
                        ExprKind::Call { .. } | ExprKind::MethodCall { .. } => StatKind::Call(expr),
                        _ => {
                            return Err(
                                self.error("expected statement (is this expression a call?)")
                            )
                        }
                    }
                }
            }
        };
        Ok(Stat { kind, line })
    }

    fn to_lvalue(&self, expr: Expr) -> Result<LValue> {
        match expr.kind {
            ExprKind::Name(n) => Ok(LValue::Name(n)),
            ExprKind::Index { obj, key } => Ok(LValue::Index {
                obj: *obj,
                key: *key,
            }),
            _ => Err(RuaError::parse(
                "cannot assign to this expression",
                expr.line,
            )),
        }
    }

    fn parse_expr_list(&mut self) -> Result<Vec<Expr>> {
        let mut exprs = vec![self.parse_expr()?];
        while self.eat(&Token::Comma) {
            exprs.push(self.parse_expr()?);
        }
        Ok(exprs)
    }

    fn parse_func_body(&mut self, name: Option<String>, is_method: bool) -> Result<FuncBody> {
        let line = self.line();
        self.expect(Token::LParen)?;
        let mut params = Vec::new();
        let mut has_vararg = false;
        if is_method {
            params.push("self".into());
        }
        if !self.eat(&Token::RParen) {
            loop {
                if self.eat(&Token::Ellipsis) {
                    has_vararg = true;
                    self.expect(Token::RParen)?;
                    break;
                }
                params.push(self.expect_name()?);
                if self.eat(&Token::RParen) {
                    break;
                }
                self.expect(Token::Comma)?;
            }
        }
        let body = self.parse_block()?;
        self.expect(Token::End)?;
        Ok(FuncBody {
            params,
            has_vararg,
            body,
            name,
            line,
        })
    }

    // ---- expressions ------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_binary(0)
    }

    /// Precedence climbing. Levels (low→high): or, and, comparison,
    /// concat (right-assoc), add, mul, unary, pow (right-assoc).
    fn parse_binary(&mut self, min_level: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, level, right_assoc)) = self.peek().and_then(binop_info) {
            if level < min_level {
                break;
            }
            let line = self.line();
            self.bump()?;
            let next_min = if right_assoc { level } else { level + 1 };
            let rhs = self.parse_binary(next_min)?;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                line,
            };
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        let line = self.line();
        let op = match self.peek() {
            Some(Token::Not) => Some(UnOp::Not),
            Some(Token::Minus) => Some(UnOp::Neg),
            Some(Token::Hash) => Some(UnOp::Len),
            _ => None,
        };
        if let Some(op) = op {
            self.bump()?;
            // Unary binds tighter than binary ops except `^`.
            let expr = self.parse_binary(UNARY_LEVEL)?;
            return Ok(Expr {
                kind: ExprKind::Unary {
                    op,
                    expr: Box::new(expr),
                },
                line,
            });
        }
        self.parse_pow_operand()
    }

    /// Parses a suffixed expression, then an optional right-assoc `^`.
    fn parse_pow_operand(&mut self) -> Result<Expr> {
        let base = self.parse_suffixed()?;
        if self.peek() == Some(&Token::Caret) {
            let line = self.line();
            self.bump()?;
            // `^` is right-associative and binds tighter than unary on
            // the right side.
            let rhs = self.parse_unary()?;
            return Ok(Expr {
                kind: ExprKind::Binary {
                    op: BinOp::Pow,
                    lhs: Box::new(base),
                    rhs: Box::new(rhs),
                },
                line,
            });
        }
        Ok(base)
    }

    /// primary expression followed by `.f`, `[k]`, `(args)`, `:m(args)`.
    fn parse_suffixed(&mut self) -> Result<Expr> {
        let mut expr = self.parse_primary()?;
        loop {
            let line = self.line();
            match self.peek() {
                Some(Token::Dot) => {
                    self.bump()?;
                    let field = self.expect_name()?;
                    expr = index_expr(expr, str_expr(field, line), line);
                }
                Some(Token::LBracket) => {
                    self.bump()?;
                    let key = self.parse_expr()?;
                    self.expect(Token::RBracket)?;
                    expr = index_expr(expr, key, line);
                }
                Some(Token::LParen) => {
                    self.bump()?;
                    let args = if self.eat(&Token::RParen) {
                        Vec::new()
                    } else {
                        let args = self.parse_expr_list()?;
                        self.expect(Token::RParen)?;
                        args
                    };
                    expr = Expr {
                        kind: ExprKind::Call {
                            f: Box::new(expr),
                            args,
                        },
                        line,
                    };
                }
                Some(Token::Colon) => {
                    self.bump()?;
                    let method = self.expect_name()?;
                    self.expect(Token::LParen)?;
                    let args = if self.eat(&Token::RParen) {
                        Vec::new()
                    } else {
                        let args = self.parse_expr_list()?;
                        self.expect(Token::RParen)?;
                        args
                    };
                    expr = Expr {
                        kind: ExprKind::MethodCall {
                            obj: Box::new(expr),
                            method,
                            args,
                        },
                        line,
                    };
                }
                _ => break,
            }
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let line = self.line();
        let kind = match self.bump()? {
            Token::Nil => ExprKind::Nil,
            Token::True => ExprKind::True,
            Token::False => ExprKind::False,
            Token::Num(n) => ExprKind::Num(n),
            Token::Str(s) => ExprKind::Str(s),
            Token::Name(n) => ExprKind::Name(n),
            Token::Ellipsis => ExprKind::Vararg,
            Token::Function => {
                let body = self.parse_func_body(None, false)?;
                ExprKind::Function(Rc::new(body))
            }
            Token::LParen => {
                let inner = self.parse_expr()?;
                self.expect(Token::RParen)?;
                // Parenthesisation truncates multiple values to one; our
                // evaluator already yields one value per expression, so
                // the inner expression is used as-is.
                return Ok(inner);
            }
            Token::LBrace => {
                let mut items = Vec::new();
                loop {
                    if self.eat(&Token::RBrace) {
                        break;
                    }
                    match self.peek() {
                        Some(Token::LBracket) => {
                            self.bump()?;
                            let key = self.parse_expr()?;
                            self.expect(Token::RBracket)?;
                            self.expect(Token::Assign)?;
                            let value = self.parse_expr()?;
                            items.push(TableItem::Keyed(key, value));
                        }
                        Some(Token::Name(_))
                            if self.tokens.get(self.pos + 1).map(|t| &t.token)
                                == Some(&Token::Assign) =>
                        {
                            let name = self.expect_name()?;
                            self.expect(Token::Assign)?;
                            let value = self.parse_expr()?;
                            items.push(TableItem::Named(name, value));
                        }
                        _ => {
                            items.push(TableItem::Positional(self.parse_expr()?));
                        }
                    }
                    if !(self.eat(&Token::Comma) || self.eat(&Token::Semi)) {
                        self.expect(Token::RBrace)?;
                        break;
                    }
                }
                ExprKind::Table(items)
            }
            other => {
                return Err(RuaError::parse(
                    format!("unexpected {other} in expression"),
                    line,
                ))
            }
        };
        Ok(Expr { kind, line })
    }
}

/// Precedence level reached by unary operators.
const UNARY_LEVEL: u8 = 6;

fn binop_info(tok: &Token) -> Option<(BinOp, u8, bool)> {
    Some(match tok {
        Token::Or => (BinOp::Or, 0, false),
        Token::And => (BinOp::And, 1, false),
        Token::Less => (BinOp::Lt, 2, false),
        Token::Greater => (BinOp::Gt, 2, false),
        Token::LessEq => (BinOp::Le, 2, false),
        Token::GreaterEq => (BinOp::Ge, 2, false),
        Token::EqEq => (BinOp::Eq, 2, false),
        Token::NotEq => (BinOp::Ne, 2, false),
        Token::Concat => (BinOp::Concat, 3, true),
        Token::Plus => (BinOp::Add, 4, false),
        Token::Minus => (BinOp::Sub, 4, false),
        Token::Star => (BinOp::Mul, 5, false),
        Token::Slash => (BinOp::Div, 5, false),
        Token::Percent => (BinOp::Mod, 5, false),
        // `^` is handled by parse_pow_operand (binds above unary).
        _ => return None,
    })
}

fn index_expr(obj: Expr, key: Expr, line: usize) -> Expr {
    Expr {
        kind: ExprKind::Index {
            obj: Box::new(obj),
            key: Box::new(key),
        },
        line,
    }
}

fn str_expr(s: Name, line: usize) -> Expr {
    Expr {
        kind: ExprKind::Str(s),
        line,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_local_and_assign() {
        let b = parse("local a, b = 1, 2\na = b").unwrap();
        assert_eq!(b.stats.len(), 2);
        assert!(matches!(b.stats[0].kind, StatKind::Local { .. }));
        assert!(matches!(b.stats[1].kind, StatKind::Assign { .. }));
    }

    #[test]
    fn precedence_is_lua_like() {
        // 1 + 2 * 3 parses as 1 + (2 * 3)
        let b = parse("x = 1 + 2 * 3").unwrap();
        let StatKind::Assign { exprs, .. } = &b.stats[0].kind else {
            panic!()
        };
        let ExprKind::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = &exprs[0].kind
        else {
            panic!("expected top-level add, got {:?}", exprs[0].kind)
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn comparison_binds_looser_than_concat() {
        // a .. b == c parses as (a .. b) == c
        let b = parse("x = a .. b == c").unwrap();
        let StatKind::Assign { exprs, .. } = &b.stats[0].kind else {
            panic!()
        };
        assert!(matches!(
            exprs[0].kind,
            ExprKind::Binary { op: BinOp::Eq, .. }
        ));
    }

    #[test]
    fn concat_is_right_associative() {
        let b = parse("x = a .. b .. c").unwrap();
        let StatKind::Assign { exprs, .. } = &b.stats[0].kind else {
            panic!()
        };
        let ExprKind::Binary {
            op: BinOp::Concat,
            rhs,
            ..
        } = &exprs[0].kind
        else {
            panic!()
        };
        assert!(matches!(
            rhs.kind,
            ExprKind::Binary {
                op: BinOp::Concat,
                ..
            }
        ));
    }

    #[test]
    fn unary_and_pow() {
        // -x^2 parses as -(x^2), like Lua.
        let b = parse("y = -x^2").unwrap();
        let StatKind::Assign { exprs, .. } = &b.stats[0].kind else {
            panic!()
        };
        let ExprKind::Unary {
            op: UnOp::Neg,
            expr,
        } = &exprs[0].kind
        else {
            panic!("expected neg at top, got {:?}", exprs[0].kind)
        };
        assert!(matches!(expr.kind, ExprKind::Binary { op: BinOp::Pow, .. }));
    }

    #[test]
    fn method_call_and_field_chains() {
        let b = parse(r#"mon:defineAspect("Increasing", f)"#).unwrap();
        assert!(matches!(
            b.stats[0].kind,
            StatKind::Call(Expr {
                kind: ExprKind::MethodCall { .. },
                ..
            })
        ));
        let b = parse("x = a.b.c[1]").unwrap();
        assert!(matches!(b.stats[0].kind, StatKind::Assign { .. }));
    }

    #[test]
    fn function_statement_sugar() {
        let b = parse("function t.f(x) return x end").unwrap();
        let StatKind::Assign { targets, exprs } = &b.stats[0].kind else {
            panic!()
        };
        assert!(matches!(targets[0], LValue::Index { .. }));
        let ExprKind::Function(body) = &exprs[0].kind else {
            panic!()
        };
        assert_eq!(body.params, [Name::from("x")]);

        let b = parse("function t:m(x) return x end").unwrap();
        let StatKind::Assign { exprs, .. } = &b.stats[0].kind else {
            panic!()
        };
        let ExprKind::Function(body) = &exprs[0].kind else {
            panic!()
        };
        assert_eq!(body.params, [Name::from("self"), Name::from("x")]);
    }

    #[test]
    fn table_constructors() {
        let b = parse(r#"t = {nj1, nj5, label = "load", [10] = true}"#).unwrap();
        let StatKind::Assign { exprs, .. } = &b.stats[0].kind else {
            panic!()
        };
        let ExprKind::Table(items) = &exprs[0].kind else {
            panic!()
        };
        assert_eq!(items.len(), 4);
        assert!(matches!(items[0], TableItem::Positional(_)));
        assert!(matches!(items[2], TableItem::Named(..)));
        assert!(matches!(items[3], TableItem::Keyed(..)));
    }

    #[test]
    fn control_flow_forms_parse() {
        parse("if a then b() elseif c then d() else e() end").unwrap();
        parse("while x < 10 do x = x + 1 end").unwrap();
        parse("repeat x = x + 1 until x > 3").unwrap();
        parse("for i = 1, 10, 2 do f(i) end").unwrap();
        parse("for k, v in pairs(t) do f(k, v) end").unwrap();
        parse("do local x = 1 end").unwrap();
        parse("while true do break end").unwrap();
    }

    #[test]
    fn return_closes_block() {
        assert!(parse("return 1, 2").is_ok());
        assert!(parse("return\n").is_ok());
        // Statements after return are rejected.
        assert!(parse("return 1 x = 2").is_err());
    }

    #[test]
    fn non_call_expression_statement_is_an_error() {
        assert!(parse("x + 1").is_err());
        assert!(parse("42").is_err());
    }

    #[test]
    fn cannot_assign_to_call() {
        assert!(parse("f() = 3").is_err());
    }

    #[test]
    fn fig7_strategy_listing_parses() {
        // The shape of the paper's Figure 7 adaptation strategy.
        let src = r#"
            smartproxy._strategies = {
                LoadIncrease = function(self)
                    self._loadavg = self._loadavgmon:getvalue()
                    local query
                    query = "LoadAvg < 50 and LoadAvgIncreasing == no "
                    if not self:_select(query) then
                        self._loadavgmon:attachEventObserver(
                            self._observer,
                            "LoadIncrease",
                            [[function(self, value, monitor)
                                local incr
                                incr = monitor:getAspectValue("Increasing")
                                return value[1] > 70 and incr == "yes"
                            end]])
                    end
                end
            }
        "#;
        parse(src).unwrap();
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("x = 1\ny = )").unwrap_err();
        assert_eq!(err.line(), 2);
    }
}
