//! The Rua lexer.

use std::fmt;
use std::rc::Rc;

use crate::error::RuaError;
use crate::Result;

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A number literal.
    Num(f64),
    /// A string literal (quotes or `[[…]]`), shared with the syntax
    /// tree built from it.
    Str(Rc<str>),
    /// An identifier, shared likewise.
    Name(Rc<str>),

    // Keywords.
    And,
    Break,
    Do,
    Else,
    Elseif,
    End,
    False,
    For,
    Function,
    If,
    In,
    Local,
    Nil,
    Not,
    Or,
    Repeat,
    Return,
    Then,
    True,
    Until,
    While,

    // Symbols.
    Plus,
    Minus,
    Star,
    Slash,
    Percent,
    Caret,
    Hash,
    EqEq,
    NotEq,
    LessEq,
    GreaterEq,
    Less,
    Greater,
    Assign,
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Semi,
    Colon,
    Comma,
    Dot,
    Concat,
    Ellipsis,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Num(n) => write!(f, "number {n}"),
            Token::Str(_) => write!(f, "string literal"),
            Token::Name(n) => write!(f, "`{n}`"),
            Token::And => write!(f, "`and`"),
            Token::Break => write!(f, "`break`"),
            Token::Do => write!(f, "`do`"),
            Token::Else => write!(f, "`else`"),
            Token::Elseif => write!(f, "`elseif`"),
            Token::End => write!(f, "`end`"),
            Token::False => write!(f, "`false`"),
            Token::For => write!(f, "`for`"),
            Token::Function => write!(f, "`function`"),
            Token::If => write!(f, "`if`"),
            Token::In => write!(f, "`in`"),
            Token::Local => write!(f, "`local`"),
            Token::Nil => write!(f, "`nil`"),
            Token::Not => write!(f, "`not`"),
            Token::Or => write!(f, "`or`"),
            Token::Repeat => write!(f, "`repeat`"),
            Token::Return => write!(f, "`return`"),
            Token::Then => write!(f, "`then`"),
            Token::True => write!(f, "`true`"),
            Token::Until => write!(f, "`until`"),
            Token::While => write!(f, "`while`"),
            Token::Plus => write!(f, "`+`"),
            Token::Minus => write!(f, "`-`"),
            Token::Star => write!(f, "`*`"),
            Token::Slash => write!(f, "`/`"),
            Token::Percent => write!(f, "`%`"),
            Token::Caret => write!(f, "`^`"),
            Token::Hash => write!(f, "`#`"),
            Token::EqEq => write!(f, "`==`"),
            Token::NotEq => write!(f, "`~=`"),
            Token::LessEq => write!(f, "`<=`"),
            Token::GreaterEq => write!(f, "`>=`"),
            Token::Less => write!(f, "`<`"),
            Token::Greater => write!(f, "`>`"),
            Token::Assign => write!(f, "`=`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::LBrace => write!(f, "`{{`"),
            Token::RBrace => write!(f, "`}}`"),
            Token::LBracket => write!(f, "`[`"),
            Token::RBracket => write!(f, "`]`"),
            Token::Semi => write!(f, "`;`"),
            Token::Colon => write!(f, "`:`"),
            Token::Comma => write!(f, "`,`"),
            Token::Dot => write!(f, "`.`"),
            Token::Concat => write!(f, "`..`"),
            Token::Ellipsis => write!(f, "`...`"),
        }
    }
}

/// A token with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken {
    /// The token.
    pub token: Token,
    /// 1-based source line.
    pub line: usize,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

/// Tokenises Rua source.
///
/// # Errors
///
/// Returns a parse-stage [`RuaError`] on malformed literals or stray
/// characters.
pub fn lex(source: &str) -> Result<Vec<SpannedToken>> {
    let mut lexer = Lexer {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while let Some(tok) = lexer.next_token()? {
        out.push(tok);
    }
    Ok(out)
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn error(&self, message: impl Into<String>) -> RuaError {
        RuaError::parse(message, self.line)
    }

    fn skip_trivia(&mut self) -> Result<()> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'-') if self.peek2() == Some(b'-') => {
                    self.pos += 2;
                    // Block comment --[[ ... ]]
                    if self.peek() == Some(b'[') && self.peek2() == Some(b'[') {
                        self.pos += 2;
                        self.read_long_bracket_body()?;
                    } else {
                        while let Some(c) = self.peek() {
                            if c == b'\n' {
                                break;
                            }
                            self.pos += 1;
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Reads the body of a `[[ … ]]` bracket (opening already consumed).
    fn read_long_bracket_body(&mut self) -> Result<String> {
        // Per Lua, a newline immediately after `[[` is skipped.
        if self.peek() == Some(b'\n') {
            self.bump();
        }
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(b']') if self.peek2() == Some(b']') => {
                    self.pos += 2;
                    return String::from_utf8(out)
                        .map_err(|_| self.error("invalid UTF-8 in long string"));
                }
                Some(_) => {
                    let c = self.bump().expect("peeked");
                    out.push(c);
                }
                None => return Err(self.error("unterminated `[[` string")),
            }
        }
    }

    fn read_quoted(&mut self, quote: u8) -> Result<String> {
        let mut out = Vec::new();
        loop {
            match self.bump() {
                None | Some(b'\n') => return Err(self.error("unterminated string")),
                Some(c) if c == quote => {
                    return String::from_utf8(out)
                        .map_err(|_| self.error("invalid UTF-8 in string"))
                }
                Some(b'\\') => {
                    let esc = self
                        .bump()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    match esc {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'a' => out.push(7),
                        b'0' => out.push(0),
                        b'\\' => out.push(b'\\'),
                        b'"' => out.push(b'"'),
                        b'\'' => out.push(b'\''),
                        b'\n' => out.push(b'\n'),
                        other => {
                            return Err(self.error(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                Some(c) => out.push(c),
            }
        }
    }

    fn read_number(&mut self) -> Result<f64> {
        let start = self.pos;
        // Hex literal.
        if self.peek() == Some(b'0') && matches!(self.peek2(), Some(b'x') | Some(b'X')) {
            self.pos += 2;
            let hex_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_hexdigit()) {
                self.pos += 1;
            }
            if self.pos == hex_start {
                return Err(self.error("malformed hex literal"));
            }
            let text = std::str::from_utf8(&self.src[hex_start..self.pos]).expect("hex digits");
            return Ok(u64::from_str_radix(text, 16)
                .map_err(|_| self.error("hex literal out of range"))?
                as f64);
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        // Fraction — but `1..2` must lex as number, concat, number.
        if self.peek() == Some(b'.') && self.peek2() != Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.error("malformed number exponent"));
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("digits");
        text.parse::<f64>()
            .map_err(|_| self.error(format!("malformed number `{text}`")))
    }

    fn next_token(&mut self) -> Result<Option<SpannedToken>> {
        self.skip_trivia()?;
        let line = self.line;
        let Some(c) = self.peek() else {
            return Ok(None);
        };
        let token = match c {
            b'0'..=b'9' => Token::Num(self.read_number()?),
            b'.' if matches!(self.peek2(), Some(d) if d.is_ascii_digit()) => {
                Token::Num(self.read_number_with_leading_dot()?)
            }
            b'"' | b'\'' => {
                self.bump();
                Token::Str(self.read_quoted(c)?.into())
            }
            b'[' if self.peek2() == Some(b'[') => {
                self.pos += 2;
                Token::Str(self.read_long_bracket_body()?.into())
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b'_') {
                    self.pos += 1;
                }
                let word = std::str::from_utf8(&self.src[start..self.pos]).expect("ident bytes");
                keyword(word).unwrap_or_else(|| Token::Name(word.into()))
            }
            _ => {
                self.bump();
                match c {
                    b'+' => Token::Plus,
                    b'-' => Token::Minus,
                    b'*' => Token::Star,
                    b'/' => Token::Slash,
                    b'%' => Token::Percent,
                    b'^' => Token::Caret,
                    b'#' => Token::Hash,
                    b'(' => Token::LParen,
                    b')' => Token::RParen,
                    b'{' => Token::LBrace,
                    b'}' => Token::RBrace,
                    b'[' => Token::LBracket,
                    b']' => Token::RBracket,
                    b';' => Token::Semi,
                    b':' => Token::Colon,
                    b',' => Token::Comma,
                    b'=' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Token::EqEq
                        } else {
                            Token::Assign
                        }
                    }
                    b'~' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Token::NotEq
                        } else {
                            return Err(self.error("unexpected `~` (did you mean `~=`?)"));
                        }
                    }
                    b'<' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Token::LessEq
                        } else {
                            Token::Less
                        }
                    }
                    b'>' => {
                        if self.peek() == Some(b'=') {
                            self.bump();
                            Token::GreaterEq
                        } else {
                            Token::Greater
                        }
                    }
                    b'.' => {
                        if self.peek() == Some(b'.') {
                            self.bump();
                            if self.peek() == Some(b'.') {
                                self.bump();
                                Token::Ellipsis
                            } else {
                                Token::Concat
                            }
                        } else {
                            Token::Dot
                        }
                    }
                    other => {
                        return Err(self.error(format!("unexpected character `{}`", other as char)))
                    }
                }
            }
        };
        Ok(Some(SpannedToken { token, line }))
    }

    fn read_number_with_leading_dot(&mut self) -> Result<f64> {
        let start = self.pos;
        self.pos += 1; // the dot
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).expect("digits");
        text.parse::<f64>()
            .map_err(|_| self.error(format!("malformed number `{text}`")))
    }
}

fn keyword(word: &str) -> Option<Token> {
    Some(match word {
        "and" => Token::And,
        "break" => Token::Break,
        "do" => Token::Do,
        "else" => Token::Else,
        "elseif" => Token::Elseif,
        "end" => Token::End,
        "false" => Token::False,
        "for" => Token::For,
        "function" => Token::Function,
        "if" => Token::If,
        "in" => Token::In,
        "local" => Token::Local,
        "nil" => Token::Nil,
        "not" => Token::Not,
        "or" => Token::Or,
        "repeat" => Token::Repeat,
        "return" => Token::Return,
        "then" => Token::Then,
        "true" => Token::True,
        "until" => Token::Until,
        "while" => Token::While,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token> {
        lex(src).unwrap().into_iter().map(|t| t.token).collect()
    }

    #[test]
    fn simple_statement() {
        assert_eq!(
            toks("local x = 42"),
            vec![
                Token::Local,
                Token::Name("x".into()),
                Token::Assign,
                Token::Num(42.0)
            ]
        );
    }

    #[test]
    fn keywords_vs_names() {
        assert_eq!(
            toks("endx end"),
            vec![Token::Name("endx".into()), Token::End]
        );
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("3.5"), vec![Token::Num(3.5)]);
        assert_eq!(toks("0x10"), vec![Token::Num(16.0)]);
        assert_eq!(toks("1e2"), vec![Token::Num(100.0)]);
        assert_eq!(toks("2.5e-1"), vec![Token::Num(0.25)]);
        assert_eq!(toks(".5"), vec![Token::Num(0.5)]);
    }

    #[test]
    fn concat_does_not_eat_number_dots() {
        assert_eq!(
            toks("1..2"),
            vec![Token::Num(1.0), Token::Concat, Token::Num(2.0)]
        );
    }

    #[test]
    fn strings_and_escapes() {
        assert_eq!(toks(r#""a\nb""#), vec![Token::Str("a\nb".into())]);
        assert_eq!(
            toks(r#"'it''s'"#),
            vec![Token::Str("it".into()), Token::Str("s".into())]
        );
        assert_eq!(toks(r#""\"q\"""#), vec![Token::Str("\"q\"".into())]);
    }

    #[test]
    fn long_strings_span_lines_and_skip_leading_newline() {
        let src = "[[function(x)\nreturn x\nend]]";
        assert_eq!(
            toks(src),
            vec![Token::Str("function(x)\nreturn x\nend".into())]
        );
        assert_eq!(toks("[[\nbody]]"), vec![Token::Str("body".into())]);
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a -- comment\nb --[[ block\ncomment ]] c"),
            vec![
                Token::Name("a".into()),
                Token::Name("b".into()),
                Token::Name("c".into())
            ]
        );
    }

    #[test]
    fn relational_operators() {
        assert_eq!(
            toks("== ~= <= >= < > ="),
            vec![
                Token::EqEq,
                Token::NotEq,
                Token::LessEq,
                Token::GreaterEq,
                Token::Less,
                Token::Greater,
                Token::Assign
            ]
        );
    }

    #[test]
    fn lines_are_tracked() {
        let tokens = lex("a\nb\n\nc").unwrap();
        let lines: Vec<_> = tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn errors() {
        assert!(lex("\"unterminated").is_err());
        assert!(lex("[[never closed").is_err());
        assert!(lex("@").is_err());
        assert!(lex("~x").is_err());
        assert!(lex("0x").is_err());
        assert!(lex("1e").is_err());
    }

    #[test]
    fn fig3_listing_lexes() {
        // The shape of the paper's Figure 3 code.
        let src = r#"
            lmon = EventMonitor.new("LoadAvg",
                function()
                    readfrom("/proc/loadavg")
                    local nj1,nj5,nj15 = read("*n","*n","*n")
                    readfrom()
                    return {nj1,nj5,nj15}
                end,
                60) -- update values every minute
        "#;
        assert!(lex(src).is_ok());
    }
}
