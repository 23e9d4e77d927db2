//! The Rua abstract syntax tree.
//!
//! Names and string literals are [`Name`]s, shared strings made once
//! when the chunk is lexed, so evaluating one and looking it up in a
//! table, a scope or the globals copies no text and allocates nothing.

use std::rc::Rc;

/// A name or string literal of a chunk.
pub type Name = Rc<str>;

/// A sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// The statements, in order.
    pub stats: Vec<Stat>,
}

/// A statement with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Stat {
    /// The statement proper.
    pub kind: StatKind,
    /// 1-based source line.
    pub line: usize,
}

/// Statement forms.
#[derive(Debug, Clone, PartialEq)]
pub enum StatKind {
    /// `local a, b = e1, e2`
    Local {
        /// Declared names.
        names: Vec<Name>,
        /// Initialisers (may be shorter or longer than `names`).
        exprs: Vec<Expr>,
    },
    /// `a, t[k] = e1, e2`
    Assign {
        /// Assignment targets.
        targets: Vec<LValue>,
        /// Right-hand sides.
        exprs: Vec<Expr>,
    },
    /// A call evaluated for its side effects.
    Call(Expr),
    /// `if … then … elseif … else … end`
    If {
        /// `(condition, body)` arms in order.
        arms: Vec<(Expr, Block)>,
        /// The `else` body, if present.
        else_body: Option<Block>,
    },
    /// `while cond do body end`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Block,
    },
    /// `repeat body until cond`
    Repeat {
        /// Loop body.
        body: Block,
        /// Exit condition (checked after the body).
        cond: Expr,
    },
    /// `for v = start, stop [, step] do body end`
    NumericFor {
        /// Control variable.
        var: Name,
        /// Initial value.
        start: Expr,
        /// Limit.
        stop: Expr,
        /// Step (defaults to 1).
        step: Option<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `for a, b in exprs do body end`
    GenericFor {
        /// Bound names.
        names: Vec<Name>,
        /// Iterator expressions.
        exprs: Vec<Expr>,
        /// Loop body.
        body: Block,
    },
    /// `do body end`
    Do(Block),
    /// `return e1, e2`
    Return(Vec<Expr>),
    /// `break`
    Break,
}

/// An assignable place.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A variable.
    Name(Name),
    /// A table slot.
    Index {
        /// The table expression.
        obj: Expr,
        /// The key expression.
        key: Expr,
    },
}

/// An expression with its source line.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression proper.
    pub kind: ExprKind,
    /// 1-based source line.
    pub line: usize,
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// `nil`
    Nil,
    /// `true`
    True,
    /// `false`
    False,
    /// A number literal.
    Num(f64),
    /// A string literal.
    Str(Name),
    /// A variable reference.
    Name(Name),
    /// `...` (the callee's extra arguments).
    Vararg,
    /// `obj[key]` (also `obj.field`).
    Index {
        /// The table expression.
        obj: Box<Expr>,
        /// The key expression.
        key: Box<Expr>,
    },
    /// `f(args)`
    Call {
        /// The callee.
        f: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `obj:method(args)`
    MethodCall {
        /// The receiver.
        obj: Box<Expr>,
        /// Method name.
        method: Name,
        /// Arguments (receiver prepended at run time).
        args: Vec<Expr>,
    },
    /// `function(params) body end`
    Function(Rc<FuncBody>),
    /// `{ … }`
    Table(Vec<TableItem>),
    /// A binary operation.
    Binary {
        /// The operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// A unary operation.
    Unary {
        /// The operator.
        op: UnOp,
        /// The operand.
        expr: Box<Expr>,
    },
}

/// One item of a table constructor.
#[derive(Debug, Clone, PartialEq)]
pub enum TableItem {
    /// A positional value (`{a, b}` — assigned indices 1, 2, …).
    Positional(Expr),
    /// `name = value`
    Named(Name, Expr),
    /// `[key] = value`
    Keyed(Expr, Expr),
}

/// The compiled body of a function literal or declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncBody {
    /// Parameter names (`self` prepended for method definitions).
    pub params: Vec<Name>,
    /// True when the parameter list ends with `...`.
    pub has_vararg: bool,
    /// The body.
    pub body: Block,
    /// Name for diagnostics, when declared with one.
    pub name: Option<String>,
    /// 1-based line of the `function` keyword.
    pub line: usize,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `^`
    Pow,
    /// `..`
    Concat,
    /// `==`
    Eq,
    /// `~=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and` (short-circuit)
    And,
    /// `or` (short-circuit)
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical `not`.
    Not,
    /// `#` (length).
    Len,
}
