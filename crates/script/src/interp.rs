//! The Rua tree-walking interpreter.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use crate::ast::*;
use crate::error::RuaError;
use crate::parser::parse;
use crate::stdlib;
use crate::value::{Table, Value};
use crate::Result;

/// A host-provided native function.
///
/// Natives receive the interpreter (so they can call back into script
/// code) and the argument list, and return zero or more values.
/// The closure type behind a [`NativeFn`].
pub type NativeImpl = dyn Fn(&mut Interpreter, Vec<Value>) -> Result<Vec<Value>>;

#[derive(Clone)]
pub struct NativeFn {
    /// Diagnostic name.
    pub name: Rc<str>,
    /// The implementation.
    pub f: Rc<NativeImpl>,
}

impl std::fmt::Debug for NativeFn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NativeFn({})", self.name)
    }
}

/// A script closure: a function body plus its captured environment.
#[derive(Debug)]
pub struct Closure {
    /// The compiled body.
    pub body: Rc<FuncBody>,
    /// The environment the function was created in.
    pub env: Env,
}

/// A lexical environment: a scope chain with reference-captured
/// variables (closures see later mutations of captured locals).
#[derive(Debug, Clone)]
pub struct Env(Rc<Scope>);

/// One block's locals, in declaration order: a block declares few, so
/// a list searched from its newest entry beats hashing. A name declared
/// again shadows the earlier cell, which closures that captured it keep.
#[derive(Debug)]
struct Scope {
    vars: RefCell<Vec<(Name, Rc<RefCell<Value>>)>>,
    parent: Option<Env>,
}

thread_local! {
    /// The name a vararg function's extra arguments are declared under.
    static VARARG: Name = Rc::from("...");
}

impl Env {
    fn root() -> Env {
        Env(Rc::new(Scope {
            vars: RefCell::new(Vec::new()),
            parent: None,
        }))
    }

    fn child(&self) -> Env {
        Env(Rc::new(Scope {
            vars: RefCell::new(Vec::new()),
            parent: Some(self.clone()),
        }))
    }

    fn declare(&self, name: &Name, value: Value) {
        self.0
            .vars
            .borrow_mut()
            .push((name.clone(), Rc::new(RefCell::new(value))));
    }

    fn declare_vararg(&self, value: Value) {
        VARARG.with(|name| self.declare(name, value));
    }

    /// Finds the cell for `name` in this scope chain.
    fn find(&self, name: &str) -> Option<Rc<RefCell<Value>>> {
        let mut scope = self;
        loop {
            let vars = scope.0.vars.borrow();
            if let Some((_, cell)) = vars.iter().rev().find(|(n, _)| **n == *name) {
                return Some(cell.clone());
            }
            scope = scope.0.parent.as_ref()?;
        }
    }
}

/// What an installed chunk of code is allowed to reach in the host.
///
/// Remotely shipped code (the paper's remote-evaluation paradigm) runs
/// under [`CapabilityProfile::Remote`], which strips the stdlib entry
/// points that escape the sandbox: `print` (host stdout), `readfrom`/
/// `read` (the host reader) and `_G` (the raw globals table, through
/// which code could re-acquire stripped functions or clobber host
/// natives).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CapabilityProfile {
    /// Full stdlib — for locally authored, trusted code.
    #[default]
    Trusted,
    /// Host-escape functions removed — for remotely installed code.
    Remote,
}

/// Resource limits and capabilities for code run by an [`Interpreter`].
///
/// Grows the original instruction budget into a full sandbox: an
/// allocation cap (accounting units ≈ bytes for strings, a fixed charge
/// per table entry), a recursion-depth cap, a wall-clock deadline
/// checked alongside the step counter, and a [`CapabilityProfile`].
/// Exceeding any limit raises a `ResourceExhausted`-class error that
/// `pcall` cannot swallow.
///
/// ```
/// use adapta_script::{Interpreter, RuaErrorKind, SandboxPolicy};
///
/// let mut rua = Interpreter::new();
/// rua.set_sandbox(&SandboxPolicy::remote());
/// let err = rua.eval("while true do end").unwrap_err();
/// assert!(err.is_resource_limit());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SandboxPolicy {
    /// Max evaluation steps per top-level `eval`/`call` (`None` = unlimited).
    pub step_budget: Option<u64>,
    /// Max allocation accounting units per top-level run (`None` = unlimited).
    pub memory_limit: Option<u64>,
    /// Max call-stack depth.
    pub max_call_depth: usize,
    /// Wall-clock deadline per top-level run (`None` = unlimited).
    pub wall_clock: Option<Duration>,
    /// Which stdlib surface the code may reach.
    pub profile: CapabilityProfile,
}

impl Default for SandboxPolicy {
    /// The trusted default: no budget, no memory cap, no deadline, the
    /// historical depth limit of 100, full stdlib.
    fn default() -> Self {
        SandboxPolicy {
            step_budget: None,
            memory_limit: None,
            max_call_depth: 100,
            wall_clock: None,
            profile: CapabilityProfile::Trusted,
        }
    }
}

impl SandboxPolicy {
    /// The profile for remotely installed code: 250k steps, 4 MB of
    /// accounting units, depth 64, a 250 ms deadline, and the
    /// [`Remote`](CapabilityProfile::Remote) capability profile.
    pub fn remote() -> Self {
        SandboxPolicy {
            step_budget: Some(250_000),
            memory_limit: Some(4 << 20),
            max_call_depth: 64,
            wall_clock: Some(Duration::from_millis(250)),
            profile: CapabilityProfile::Remote,
        }
    }

    /// Sets the step budget.
    pub fn with_step_budget(mut self, budget: Option<u64>) -> Self {
        self.step_budget = budget;
        self
    }

    /// Sets the memory cap (accounting units).
    pub fn with_memory_limit(mut self, limit: Option<u64>) -> Self {
        self.memory_limit = limit;
        self
    }

    /// Sets the call-depth cap.
    pub fn with_max_call_depth(mut self, depth: usize) -> Self {
        self.max_call_depth = depth;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_wall_clock(mut self, deadline: Option<Duration>) -> Self {
        self.wall_clock = deadline;
        self
    }
}

/// Accounting units charged per table entry (≈ a small allocation);
/// strings are charged one unit per byte.
pub(crate) const TABLE_ENTRY_COST: u64 = 16;

/// The closure type behind the pluggable `readfrom` reader.
pub(crate) type ReaderFn = dyn Fn(&str) -> Option<String>;

enum Flow {
    Normal,
    Break,
    Return(Vec<Value>),
}

/// A Rua interpreter: globals, budget, and host hooks.
///
/// An `Interpreter` is the analogue of a Lua state. It is deliberately
/// `!Send`: values share `Rc`s. To serve concurrent callers, keep it
/// behind one lock that every entry takes, and let no `Rc` leave it
/// (see `adapta-bridge`'s `Isolate`).
///
/// ```
/// use adapta_script::{Interpreter, Value};
///
/// let mut rua = Interpreter::new();
/// let out = rua.eval("local t = {3, 1, 2} return #t + t[1]").unwrap();
/// assert_eq!(out, vec![Value::Num(6.0)]);
/// ```
pub struct Interpreter {
    globals: Rc<RefCell<Table>>,
    steps: u64,
    budget: Option<u64>,
    mem_used: u64,
    mem_limit: Option<u64>,
    max_depth: usize,
    wall_clock: Option<Duration>,
    deadline: Option<Instant>,
    depth: usize,
    current_line: usize,
    /// Pluggable file reader backing `readfrom` (Figure 3 reads
    /// `/proc/loadavg`; hosts map paths to synthetic content).
    pub(crate) reader: Option<Rc<ReaderFn>>,
    /// The buffer `read(...)` consumes from, with a cursor.
    pub(crate) input: Option<(String, usize)>,
    /// Captured `print` output when capture is enabled.
    pub(crate) printed: Option<Vec<String>>,
    /// Host clock for `os.clock()`/`os.time()`, seconds.
    pub(crate) clock: Option<Rc<dyn Fn() -> f64>>,
    /// Deterministic PRNG state for `math.random`.
    pub(crate) rng_state: u64,
}

impl std::fmt::Debug for Interpreter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Interpreter")
            .field("steps", &self.steps)
            .field("budget", &self.budget)
            .finish_non_exhaustive()
    }
}

impl Default for Interpreter {
    fn default() -> Self {
        Self::new()
    }
}

impl Interpreter {
    /// Creates an interpreter with the standard library installed.
    pub fn new() -> Self {
        let mut interp = Interpreter {
            globals: Rc::new(RefCell::new(Table::new())),
            steps: 0,
            budget: None,
            mem_used: 0,
            mem_limit: None,
            max_depth: 100,
            wall_clock: None,
            deadline: None,
            depth: 0,
            current_line: 0,
            reader: None,
            input: None,
            printed: None,
            clock: None,
            rng_state: 0x853c_49e6_748f_ea9b,
        };
        stdlib::install(&mut interp);
        interp
    }

    /// The globals table (shared handle).
    pub fn globals(&self) -> Rc<RefCell<Table>> {
        self.globals.clone()
    }

    /// Reads a global variable.
    pub fn global(&self, name: &str) -> Value {
        self.globals.borrow().get_str(name)
    }

    /// Sets a global variable.
    pub fn set_global(&mut self, name: &str, value: Value) {
        self.globals.borrow_mut().set_str(name, value);
    }

    /// Registers a native function as a global.
    ///
    /// ```
    /// use adapta_script::{Interpreter, Value};
    ///
    /// let mut rua = Interpreter::new();
    /// rua.register("double", |_, args| {
    ///     let n = args[0].as_num().unwrap_or(0.0);
    ///     Ok(vec![Value::Num(n * 2.0)])
    /// });
    /// assert_eq!(rua.eval("return double(21)").unwrap(), vec![Value::Num(42.0)]);
    /// ```
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&mut Interpreter, Vec<Value>) -> Result<Vec<Value>> + 'static,
    ) {
        let native = Value::Native(NativeFn {
            name: Rc::from(name),
            f: Rc::new(f),
        });
        self.set_global(name, native);
    }

    /// Builds a native function value without installing it globally.
    pub fn native(
        name: &str,
        f: impl Fn(&mut Interpreter, Vec<Value>) -> Result<Vec<Value>> + 'static,
    ) -> Value {
        Value::Native(NativeFn {
            name: Rc::from(name),
            f: Rc::new(f),
        })
    }

    /// Limits the number of evaluation steps for subsequent runs
    /// (`None` removes the limit). The counter resets on each top-level
    /// [`eval`](Self::eval)/[`call`](Self::call).
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// Applies a full [`SandboxPolicy`]: step budget, memory cap,
    /// call-depth cap and wall-clock deadline for subsequent runs. For
    /// [`CapabilityProfile::Remote`] the host-escape stdlib entry points
    /// (`print`, `readfrom`, `read`, `_G`) are removed from the globals.
    pub fn set_sandbox(&mut self, policy: &SandboxPolicy) {
        self.budget = policy.step_budget;
        self.mem_limit = policy.memory_limit;
        self.max_depth = policy.max_call_depth;
        self.wall_clock = policy.wall_clock;
        if policy.profile == CapabilityProfile::Remote {
            let mut globals = self.globals.borrow_mut();
            for name in ["print", "readfrom", "read", "_G"] {
                globals.set_str(name, Value::Nil);
            }
        }
    }

    /// Steps consumed by the current (or last) top-level run.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Allocation accounting units consumed by the current (or last)
    /// top-level run.
    pub fn memory_used(&self) -> u64 {
        self.mem_used
    }

    /// Installs the file reader backing the `readfrom` builtin.
    pub fn set_reader(&mut self, f: impl Fn(&str) -> Option<String> + 'static) {
        self.reader = Some(Rc::new(f));
    }

    /// Installs the clock backing `os.clock()` and `os.time()`.
    pub fn set_clock(&mut self, f: impl Fn() -> f64 + 'static) {
        self.clock = Some(Rc::new(f));
    }

    /// Starts capturing `print` output instead of writing to stdout.
    pub fn capture_print(&mut self) {
        self.printed = Some(Vec::new());
    }

    /// Takes the captured `print` lines (empty if capture is off).
    pub fn take_printed(&mut self) -> Vec<String> {
        match &mut self.printed {
            Some(lines) => std::mem::take(lines),
            None => Vec::new(),
        }
    }

    /// Parses and runs a chunk; returns the chunk's `return` values.
    ///
    /// # Errors
    ///
    /// Returns parse errors, runtime errors, or budget exhaustion.
    pub fn eval(&mut self, source: &str) -> Result<Vec<Value>> {
        let block = parse(source)?;
        self.reset_limits();
        let env = Env::root().child();
        // Top-level chunks are vararg functions with no arguments
        // (loadstring semantics).
        env.declare_vararg(Value::Table(std::rc::Rc::new(RefCell::new(Table::new()))));
        match self.exec_block(&block, &env)? {
            Flow::Return(values) => Ok(values),
            _ => Ok(Vec::new()),
        }
    }

    /// Evaluates a single expression.
    ///
    /// # Errors
    ///
    /// As for [`eval`](Self::eval).
    pub fn eval_expr(&mut self, source: &str) -> Result<Value> {
        let values = self.eval(&format!("return ({source})"))?;
        Ok(values.into_iter().next().unwrap_or(Value::Nil))
    }

    /// Compiles a chunk into a zero-argument function value without
    /// running it — the `loadstring` analogue used for all remotely
    /// shipped code.
    ///
    /// # Errors
    ///
    /// Returns parse errors only.
    pub fn compile(&mut self, source: &str) -> Result<Value> {
        let block = parse(source)?;
        let body = FuncBody {
            params: Vec::new(),
            has_vararg: true,
            body: block,
            name: Some("chunk".to_owned()),
            line: 1,
        };
        Ok(Value::Function(Rc::new(Closure {
            body: Rc::new(body),
            env: Env::root().child(),
        })))
    }

    /// Compiles a source string that must evaluate to a function — the
    /// idiom for the paper's code-carrying parameters, which are written
    /// either as `function(...) ... end` literals or as chunks returning
    /// a function.
    ///
    /// # Errors
    ///
    /// Returns a parse error, or a runtime error if the chunk does not
    /// yield a function.
    pub fn compile_function(&mut self, source: &str) -> Result<Value> {
        let trimmed = source.trim();
        let chunk = if trimmed.starts_with("function") {
            format!("return {trimmed}")
        } else {
            trimmed.to_owned()
        };
        let values = self.eval(&chunk)?;
        match values.into_iter().next() {
            Some(v @ (Value::Function(_) | Value::Native(_))) => Ok(v),
            other => Err(RuaError::runtime(
                format!(
                    "expected code evaluating to a function, got {}",
                    other.map(|v| v.type_name()).unwrap_or("nothing")
                ),
                0,
            )),
        }
    }

    /// Calls a function value with arguments, resetting the step budget.
    ///
    /// # Errors
    ///
    /// Returns a runtime error if `f` is not callable or the call fails.
    pub fn call(&mut self, f: &Value, args: Vec<Value>) -> Result<Vec<Value>> {
        self.reset_limits();
        self.call_value(f, args)
    }

    // ---- internals ---------------------------------------------------

    /// Resets the per-run counters and arms the wall-clock deadline.
    fn reset_limits(&mut self) {
        self.steps = 0;
        self.mem_used = 0;
        self.deadline = self.wall_clock.map(|d| Instant::now() + d);
    }

    fn tick(&mut self, line: usize) -> Result<()> {
        self.current_line = line;
        self.steps += 1;
        if let Some(budget) = self.budget {
            if self.steps > budget {
                return Err(RuaError::budget(line));
            }
        }
        // Checking the clock every step would dominate interpretation
        // cost; every 256 steps keeps overrun under a millisecond.
        if self.steps & 0xFF == 0 {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    return Err(RuaError::deadline(line));
                }
            }
        }
        Ok(())
    }

    /// Charges allocation accounting units against the memory cap.
    /// Called *before* the allocation happens so a single oversized
    /// request (e.g. `string.rep(s, 1e9)`) fails without allocating.
    pub(crate) fn charge(&mut self, units: u64, line: usize) -> Result<()> {
        self.mem_used = self.mem_used.saturating_add(units);
        if let Some(limit) = self.mem_limit {
            if self.mem_used > limit {
                return Err(RuaError::memory(if line == 0 {
                    self.current_line
                } else {
                    line
                }));
            }
        }
        Ok(())
    }

    fn rt(&self, message: impl Into<String>, line: usize) -> RuaError {
        RuaError::runtime(message, if line == 0 { self.current_line } else { line })
    }

    fn exec_block(&mut self, block: &Block, env: &Env) -> Result<Flow> {
        for stat in &block.stats {
            match self.exec_stat(stat, env)? {
                Flow::Normal => {}
                flow => return Ok(flow),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stat(&mut self, stat: &Stat, env: &Env) -> Result<Flow> {
        self.tick(stat.line)?;
        match &stat.kind {
            StatKind::Local { names, exprs } => {
                // `local function f` needs f visible inside its own body.
                let recursive_fn = names.len() == 1
                    && exprs.len() == 1
                    && matches!(exprs[0].kind, ExprKind::Function(_));
                if recursive_fn {
                    env.declare(&names[0], Value::Nil);
                }
                let values = self.eval_list(exprs, env)?;
                for (i, name) in names.iter().enumerate() {
                    let v = values.get(i).cloned().unwrap_or(Value::Nil);
                    if recursive_fn {
                        if let Some(cell) = env.find(name) {
                            *cell.borrow_mut() = v;
                            continue;
                        }
                    }
                    env.declare(name, v);
                }
                Ok(Flow::Normal)
            }
            StatKind::Assign { targets, exprs } => {
                let values = self.eval_list(exprs, env)?;
                for (i, target) in targets.iter().enumerate() {
                    let v = values.get(i).cloned().unwrap_or(Value::Nil);
                    self.assign(target, v, env, stat.line)?;
                }
                Ok(Flow::Normal)
            }
            StatKind::Call(expr) => {
                self.eval_multi(expr, env)?;
                Ok(Flow::Normal)
            }
            StatKind::If { arms, else_body } => {
                for (cond, body) in arms {
                    if self.eval_one(cond, env)?.truthy() {
                        return self.exec_block(body, &env.child());
                    }
                }
                if let Some(body) = else_body {
                    return self.exec_block(body, &env.child());
                }
                Ok(Flow::Normal)
            }
            StatKind::While { cond, body } => {
                while self.eval_one(cond, env)?.truthy() {
                    self.tick(stat.line)?;
                    match self.exec_block(body, &env.child())? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            StatKind::Repeat { body, cond } => {
                loop {
                    self.tick(stat.line)?;
                    // The condition sees the body's scope (Lua rule).
                    let scope = env.child();
                    match self.exec_block(body, &scope)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                    if self.eval_one(cond, &scope)?.truthy() {
                        break;
                    }
                }
                Ok(Flow::Normal)
            }
            StatKind::NumericFor {
                var,
                start,
                stop,
                step,
                body,
            } => {
                let start = self.expect_num(start, env, "for initial value")?;
                let stop = self.expect_num(stop, env, "for limit")?;
                let step = match step {
                    Some(e) => self.expect_num(e, env, "for step")?,
                    None => 1.0,
                };
                if step == 0.0 {
                    return Err(self.rt("for step is zero", stat.line));
                }
                let mut i = start;
                while (step > 0.0 && i <= stop) || (step < 0.0 && i >= stop) {
                    self.tick(stat.line)?;
                    let scope = env.child();
                    scope.declare(var, Value::Num(i));
                    match self.exec_block(body, &scope)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                    i += step;
                }
                Ok(Flow::Normal)
            }
            StatKind::GenericFor { names, exprs, body } => {
                let mut iter = self.eval_list(exprs, env)?;
                iter.resize(3, Value::Nil);
                let f = iter[0].clone();
                let state = iter[1].clone();
                let mut control = iter[2].clone();
                loop {
                    self.tick(stat.line)?;
                    let mut values = self.call_value(&f, vec![state.clone(), control.clone()])?;
                    values.resize(names.len().max(1), Value::Nil);
                    if values[0] == Value::Nil {
                        break;
                    }
                    control = values[0].clone();
                    let scope = env.child();
                    for (name, v) in names.iter().zip(values) {
                        scope.declare(name, v);
                    }
                    match self.exec_block(body, &scope)? {
                        Flow::Normal => {}
                        Flow::Break => break,
                        flow @ Flow::Return(_) => return Ok(flow),
                    }
                }
                Ok(Flow::Normal)
            }
            StatKind::Do(body) => self.exec_block(body, &env.child()),
            StatKind::Return(exprs) => {
                let values = self.eval_list(exprs, env)?;
                Ok(Flow::Return(values))
            }
            StatKind::Break => Ok(Flow::Break),
        }
    }

    fn assign(&mut self, target: &LValue, value: Value, env: &Env, line: usize) -> Result<()> {
        match target {
            LValue::Name(name) => {
                if let Some(cell) = env.find(name) {
                    *cell.borrow_mut() = value;
                } else {
                    self.globals.borrow_mut().set_name(name, value);
                }
                Ok(())
            }
            LValue::Index { obj, key } => {
                let table = self.eval_one(obj, env)?;
                let key = self.eval_one(key, env)?;
                match table {
                    Value::Table(t) => {
                        self.charge(TABLE_ENTRY_COST, line)?;
                        t.borrow_mut().set(key, value).map_err(|m| self.rt(m, line))
                    }
                    other => Err(self.rt(
                        format!("attempt to index a {} value", other.type_name()),
                        line,
                    )),
                }
            }
        }
    }

    fn expect_num(&mut self, expr: &Expr, env: &Env, what: &str) -> Result<f64> {
        let v = self.eval_one(expr, env)?;
        v.coerce_num()
            .ok_or_else(|| self.rt(format!("{what} must be a number"), expr.line))
    }

    /// Evaluates an expression list; the *last* expression expands its
    /// multiple values (Lua semantics).
    fn eval_list(&mut self, exprs: &[Expr], env: &Env) -> Result<Vec<Value>> {
        let mut out = Vec::with_capacity(exprs.len());
        for (i, expr) in exprs.iter().enumerate() {
            if i + 1 == exprs.len() {
                out.extend(self.eval_multi(expr, env)?);
            } else {
                out.push(self.eval_one(expr, env)?);
            }
        }
        Ok(out)
    }

    /// Evaluates to possibly-multiple values (calls expand).
    fn eval_multi(&mut self, expr: &Expr, env: &Env) -> Result<Vec<Value>> {
        match &expr.kind {
            ExprKind::Call { f, args } => {
                self.tick(expr.line)?;
                let callee = self.eval_one(f, env)?;
                let args = self.eval_list(args, env)?;
                self.call_value(&callee, args)
                    .map_err(|e| self.contextualise(e, expr.line))
            }
            ExprKind::MethodCall { obj, method, args } => {
                self.tick(expr.line)?;
                let receiver = self.eval_one(obj, env)?;
                let callee = match &receiver {
                    Value::Table(t) => t.borrow().get_name(method),
                    other => {
                        return Err(self.rt(
                            format!(
                                "attempt to call method `{method}` on a {} value",
                                other.type_name()
                            ),
                            expr.line,
                        ))
                    }
                };
                if callee == Value::Nil {
                    return Err(self.rt(format!("method `{method}` is nil"), expr.line));
                }
                let mut full_args = vec![receiver];
                full_args.extend(self.eval_list(args, env)?);
                self.call_value(&callee, full_args)
                    .map_err(|e| self.contextualise(e, expr.line))
            }
            ExprKind::Vararg => {
                self.tick(expr.line)?;
                let cell = env.find("...");
                let v = cell.map(|c| c.borrow().clone());
                match v {
                    Some(Value::Table(t)) => {
                        let t = t.borrow();
                        Ok((1..=t.len())
                            .map(|i| t.get(&Value::from(i as i64)))
                            .collect())
                    }
                    _ => Err(self.rt("cannot use `...` outside a vararg function", expr.line)),
                }
            }
            _ => Ok(vec![self.eval_one(expr, env)?]),
        }
    }

    /// Attaches a line to errors raised by natives (which report line 0).
    fn contextualise(&self, e: RuaError, line: usize) -> RuaError {
        if e.line() == 0 {
            RuaError::runtime(e.message().to_owned(), line)
        } else {
            e
        }
    }

    fn eval_one(&mut self, expr: &Expr, env: &Env) -> Result<Value> {
        self.tick(expr.line)?;
        Ok(match &expr.kind {
            ExprKind::Nil => Value::Nil,
            ExprKind::True => Value::Bool(true),
            ExprKind::False => Value::Bool(false),
            ExprKind::Num(n) => Value::Num(*n),
            ExprKind::Str(s) => Value::Str(s.clone()),
            ExprKind::Name(name) => match env.find(name) {
                Some(cell) => cell.borrow().clone(),
                None => self.globals.borrow().get_name(name),
            },
            ExprKind::Index { obj, key } => {
                let table = self.eval_one(obj, env)?;
                let key = self.eval_one(key, env)?;
                match table {
                    Value::Table(t) => t.borrow().get(&key),
                    other => {
                        return Err(self.rt(
                            format!("attempt to index a {} value", other.type_name()),
                            expr.line,
                        ))
                    }
                }
            }
            ExprKind::Call { .. } | ExprKind::MethodCall { .. } | ExprKind::Vararg => {
                let values = self.eval_multi(expr, env)?;
                values.into_iter().next().unwrap_or(Value::Nil)
            }
            ExprKind::Function(body) => Value::Function(Rc::new(Closure {
                body: body.clone(),
                env: env.clone(),
            })),
            ExprKind::Table(items) => {
                let mut table = Table::new();
                let mut index = 0i64;
                let last = items.len().saturating_sub(1);
                for (i, item) in items.iter().enumerate() {
                    self.charge(TABLE_ENTRY_COST, expr.line)?;
                    match item {
                        TableItem::Positional(e) => {
                            // The final positional item expands multiple
                            // values (`{...}`, `{f()}` — Lua rule).
                            if i == last
                                && matches!(
                                    e.kind,
                                    ExprKind::Call { .. }
                                        | ExprKind::MethodCall { .. }
                                        | ExprKind::Vararg
                                )
                            {
                                for v in self.eval_multi(e, env)? {
                                    self.charge(TABLE_ENTRY_COST, e.line)?;
                                    index += 1;
                                    table
                                        .set(Value::Num(index as f64), v)
                                        .map_err(|m| self.rt(m, e.line))?;
                                }
                                continue;
                            }
                            index += 1;
                            let v = self.eval_one(e, env)?;
                            table
                                .set(Value::Num(index as f64), v)
                                .map_err(|m| self.rt(m, e.line))?;
                        }
                        TableItem::Named(name, e) => {
                            let v = self.eval_one(e, env)?;
                            table.set_name(name, v);
                        }
                        TableItem::Keyed(k, e) => {
                            let key = self.eval_one(k, env)?;
                            let v = self.eval_one(e, env)?;
                            table.set(key, v).map_err(|m| self.rt(m, e.line))?;
                        }
                    }
                }
                Value::Table(Rc::new(RefCell::new(table)))
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // Short-circuit forms first.
                match op {
                    BinOp::And => {
                        let l = self.eval_one(lhs, env)?;
                        return if l.truthy() {
                            self.eval_one(rhs, env)
                        } else {
                            Ok(l)
                        };
                    }
                    BinOp::Or => {
                        let l = self.eval_one(lhs, env)?;
                        return if l.truthy() {
                            Ok(l)
                        } else {
                            self.eval_one(rhs, env)
                        };
                    }
                    _ => {}
                }
                let l = self.eval_one(lhs, env)?;
                let r = self.eval_one(rhs, env)?;
                self.binop(*op, l, r, expr.line)?
            }
            ExprKind::Unary { op, expr: inner } => {
                let v = self.eval_one(inner, env)?;
                match op {
                    UnOp::Not => Value::Bool(!v.truthy()),
                    UnOp::Neg => Value::Num(-v.coerce_num().ok_or_else(|| {
                        self.rt(
                            format!("attempt to perform arithmetic on a {} value", v.type_name()),
                            inner.line,
                        )
                    })?),
                    UnOp::Len => match &v {
                        Value::Table(t) => Value::Num(t.borrow().len() as f64),
                        Value::Str(s) => Value::Num(s.len() as f64),
                        other => {
                            return Err(self.rt(
                                format!("attempt to get length of a {} value", other.type_name()),
                                inner.line,
                            ))
                        }
                    },
                }
            }
        })
    }

    fn binop(&mut self, op: BinOp, l: Value, r: Value, line: usize) -> Result<Value> {
        use BinOp::*;
        let arith = |l: &Value, r: &Value| -> Result<(f64, f64)> {
            match (l.coerce_num(), r.coerce_num()) {
                (Some(a), Some(b)) => Ok((a, b)),
                (None, _) => Err(self.rt(
                    format!("attempt to perform arithmetic on a {} value", l.type_name()),
                    line,
                )),
                (_, None) => Err(self.rt(
                    format!("attempt to perform arithmetic on a {} value", r.type_name()),
                    line,
                )),
            }
        };
        Ok(match op {
            Add => {
                let (a, b) = arith(&l, &r)?;
                Value::Num(a + b)
            }
            Sub => {
                let (a, b) = arith(&l, &r)?;
                Value::Num(a - b)
            }
            Mul => {
                let (a, b) = arith(&l, &r)?;
                Value::Num(a * b)
            }
            Div => {
                let (a, b) = arith(&l, &r)?;
                Value::Num(a / b)
            }
            Mod => {
                let (a, b) = arith(&l, &r)?;
                // Lua: result has the sign of the divisor.
                Value::Num(a - (a / b).floor() * b)
            }
            Pow => {
                let (a, b) = arith(&l, &r)?;
                Value::Num(a.powf(b))
            }
            Concat => {
                let left = match &l {
                    Value::Str(s) => s.to_string(),
                    Value::Num(n) => crate::value::fmt_number(*n),
                    other => {
                        return Err(self.rt(
                            format!("attempt to concatenate a {} value", other.type_name()),
                            line,
                        ))
                    }
                };
                let right = match &r {
                    Value::Str(s) => s.to_string(),
                    Value::Num(n) => crate::value::fmt_number(*n),
                    other => {
                        return Err(self.rt(
                            format!("attempt to concatenate a {} value", other.type_name()),
                            line,
                        ))
                    }
                };
                self.charge((left.len() + right.len()) as u64, line)?;
                Value::str(format!("{left}{right}"))
            }
            Eq => Value::Bool(l == r),
            Ne => Value::Bool(l != r),
            Lt | Le | Gt | Ge => {
                let ord = match (&l, &r) {
                    (Value::Num(a), Value::Num(b)) => a.partial_cmp(b),
                    (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
                    _ => {
                        return Err(self.rt(
                            format!(
                                "attempt to compare {} with {}",
                                l.type_name(),
                                r.type_name()
                            ),
                            line,
                        ))
                    }
                };
                let Some(ord) = ord else {
                    return Ok(Value::Bool(false)); // NaN comparisons
                };
                Value::Bool(match op {
                    Lt => ord.is_lt(),
                    Le => ord.is_le(),
                    Gt => ord.is_gt(),
                    Ge => ord.is_ge(),
                    _ => unreachable!(),
                })
            }
            And | Or => unreachable!("short-circuit ops handled earlier"),
        })
    }

    /// Calls a callable value. Public to natives via `pcall` etc.
    pub(crate) fn call_value(&mut self, f: &Value, mut args: Vec<Value>) -> Result<Vec<Value>> {
        if self.depth >= self.max_depth {
            return Err(RuaError::resource("call stack overflow", self.current_line));
        }
        self.depth += 1;
        let frame = CallFrame(self);
        let this = &mut *frame.0;
        match f {
            Value::Function(closure) => {
                let scope = closure.env.child();
                if args.len() < closure.body.params.len() {
                    args.resize(closure.body.params.len(), Value::Nil);
                }
                let extra: Vec<Value> = args.split_off(closure.body.params.len());
                for (param, arg) in closure.body.params.iter().zip(args) {
                    scope.declare(param, arg);
                }
                if closure.body.has_vararg {
                    // `...` is stored as a table in a hidden local; the
                    // Vararg expression expands it back to values.
                    let mut t = Table::new();
                    for v in extra {
                        t.push(v);
                    }
                    scope.declare_vararg(Value::Table(std::rc::Rc::new(RefCell::new(t))));
                } else {
                    // Shadow any enclosing vararg scope: `...` is not
                    // visible inside non-vararg functions (Lua rule).
                    scope.declare_vararg(Value::Nil);
                }
                match this.exec_block(&closure.body.body, &scope) {
                    Ok(Flow::Return(values)) => Ok(values),
                    Ok(_) => Ok(Vec::new()),
                    Err(e) => Err(e),
                }
            }
            Value::Native(native) => (native.f.clone())(this, args),
            other => Err(this.rt(format!("attempt to call a {} value", other.type_name()), 0)),
        }
    }
}

/// One level of call depth, given back when dropped: also while a
/// panicking native unwinds, so a caught panic leaves the depth cap as
/// it was.
struct CallFrame<'a>(&'a mut Interpreter);

impl Drop for CallFrame<'_> {
    fn drop(&mut self) {
        self.0.depth -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RuaErrorKind;

    fn eval1(src: &str) -> Value {
        Interpreter::new()
            .eval(src)
            .unwrap()
            .into_iter()
            .next()
            .unwrap_or(Value::Nil)
    }

    fn eval_err(src: &str) -> RuaError {
        Interpreter::new().eval(src).unwrap_err()
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval1("return 1 + 2 * 3"), Value::Num(7.0));
        assert_eq!(eval1("return (1 + 2) * 3"), Value::Num(9.0));
        assert_eq!(eval1("return 2 ^ 3 ^ 2"), Value::Num(512.0));
        assert_eq!(eval1("return 7 % 3"), Value::Num(1.0));
        assert_eq!(eval1("return -7 % 3"), Value::Num(2.0)); // Lua sign rule
        assert_eq!(eval1("return -2 ^ 2"), Value::Num(-4.0));
        assert_eq!(eval1("return 10 / 4"), Value::Num(2.5));
    }

    #[test]
    fn string_number_coercion_in_arithmetic() {
        assert_eq!(eval1("return '10' + 5"), Value::Num(15.0));
        assert!(matches!(
            eval_err("return {} + 1").kind(),
            RuaErrorKind::Runtime
        ));
    }

    #[test]
    fn concat() {
        assert_eq!(eval1("return 'a' .. 'b' .. 1"), Value::str("ab1"));
        assert_eq!(eval1("return 1 .. 2"), Value::str("12"));
    }

    #[test]
    fn comparison_and_logic() {
        assert_eq!(eval1("return 1 < 2"), Value::Bool(true));
        assert_eq!(eval1("return 'a' < 'b'"), Value::Bool(true));
        assert_eq!(eval1("return nil == false"), Value::Bool(false));
        assert_eq!(eval1("return 1 and 2"), Value::Num(2.0));
        assert_eq!(eval1("return nil and 2"), Value::Nil);
        assert_eq!(eval1("return nil or 'x'"), Value::str("x"));
        assert_eq!(eval1("return not nil"), Value::Bool(true));
        assert!(eval_err("return 1 < 'a'").to_string().contains("compare"));
    }

    #[test]
    fn short_circuit_does_not_evaluate_rhs() {
        let v = eval1("local n = 0\nlocal function f() n = n + 1 return true end\nlocal x = false and f()\nreturn n");
        assert_eq!(v, Value::Num(0.0));
    }

    #[test]
    fn locals_scope_and_globals() {
        let v = eval1("x = 1\ndo local x = 2 end\nreturn x");
        assert_eq!(v, Value::Num(1.0));
        let v = eval1("local x = 1\nif true then x = 2 end\nreturn x");
        assert_eq!(v, Value::Num(2.0));
    }

    #[test]
    fn closures_capture_by_reference() {
        let v = eval1(
            r#"
            local function counter()
                local n = 0
                return function() n = n + 1 return n end
            end
            local c = counter()
            c() c()
            return c()
        "#,
        );
        assert_eq!(v, Value::Num(3.0));
    }

    #[test]
    fn multiple_assignment_and_returns() {
        let out = Interpreter::new()
            .eval("local function two() return 1, 2 end\nlocal a, b, c = two()\nreturn a, b, c")
            .unwrap();
        assert_eq!(out, vec![Value::Num(1.0), Value::Num(2.0), Value::Nil]);
        // Only the last call in a list expands.
        let out = Interpreter::new()
            .eval("local function two() return 1, 2 end\nreturn two(), two()")
            .unwrap();
        assert_eq!(out, vec![Value::Num(1.0), Value::Num(1.0), Value::Num(2.0)]);
    }

    #[test]
    fn swap_assignment() {
        let out = Interpreter::new()
            .eval("local a, b = 1, 2\na, b = b, a\nreturn a, b")
            .unwrap();
        assert_eq!(out, vec![Value::Num(2.0), Value::Num(1.0)]);
    }

    #[test]
    fn numeric_for_with_step_and_break() {
        assert_eq!(
            eval1("local s = 0 for i = 1, 10 do s = s + i end return s"),
            Value::Num(55.0)
        );
        assert_eq!(
            eval1("local s = 0 for i = 10, 1, -2 do s = s + i end return s"),
            Value::Num(30.0)
        );
        assert_eq!(
            eval1("local s = 0 for i = 1, 10 do if i > 3 then break end s = s + i end return s"),
            Value::Num(6.0)
        );
        assert!(eval_err("for i = 1, 10, 0 do end")
            .to_string()
            .contains("step"));
    }

    #[test]
    fn while_and_repeat() {
        assert_eq!(
            eval1("local n = 0 while n < 5 do n = n + 1 end return n"),
            Value::Num(5.0)
        );
        assert_eq!(
            eval1("local n = 0 repeat n = n + 1 until n >= 3 return n"),
            Value::Num(3.0)
        );
        // repeat's condition sees body locals.
        assert_eq!(
            eval1("local n = 0 repeat local done = n > 1 n = n + 1 until done return n"),
            Value::Num(3.0)
        );
    }

    #[test]
    fn tables_and_methods() {
        assert_eq!(
            eval1("local t = {a = 1} function t:get() return self.a end return t:get()"),
            Value::Num(1.0)
        );
        assert_eq!(
            eval1("local t = {10, 20, 30} return t[2] + #t"),
            Value::Num(23.0)
        );
        assert_eq!(
            eval1("local t = {} t.x = 'v' return t['x']"),
            Value::str("v")
        );
        assert_eq!(
            eval1("local t = {} t[1] = 5 t[1] = nil return t[1]"),
            Value::Nil
        );
    }

    #[test]
    fn method_call_on_nil_is_an_error() {
        let e = eval_err("local t = {} return t:missing()");
        assert!(e.to_string().contains("missing"));
        let e = eval_err("local s = 'str' return s:upper()");
        assert!(e.to_string().contains("string"));
    }

    #[test]
    fn function_statement_declares_global() {
        let mut rua = Interpreter::new();
        rua.eval("function greet() return 'hi' end").unwrap();
        let f = rua.global("greet");
        assert_eq!(rua.call(&f, vec![]).unwrap(), vec![Value::str("hi")]);
    }

    #[test]
    fn local_function_can_recurse() {
        assert_eq!(
            eval1(
                "local function fib(n) if n < 2 then return n end return fib(n-1) + fib(n-2) end return fib(10)"
            ),
            Value::Num(55.0)
        );
    }

    #[test]
    fn stack_overflow_is_caught() {
        let e = eval_err("local function f() return f() end return f()");
        assert!(e.to_string().contains("stack overflow"));
    }

    #[test]
    fn budget_stops_runaway_code() {
        let mut rua = Interpreter::new();
        rua.set_budget(Some(10_000));
        let err = rua.eval("while true do end").unwrap_err();
        assert_eq!(err.kind(), RuaErrorKind::BudgetExhausted);
        // Budget resets per eval.
        assert!(rua.eval("return 1").is_ok());
    }

    #[test]
    fn memory_cap_stops_table_bomb() {
        let mut rua = Interpreter::new();
        rua.set_sandbox(&SandboxPolicy::default().with_memory_limit(Some(4096)));
        let err = rua
            .eval("local t = {} local i = 0 while true do i = i + 1 t[i] = i end")
            .unwrap_err();
        assert_eq!(err.kind(), RuaErrorKind::ResourceExhausted);
        assert!(err.message().contains("memory"));
        // Accounting resets per eval.
        assert!(rua.eval("return {1, 2, 3}").is_ok());
    }

    #[test]
    fn memory_cap_stops_string_bomb() {
        let mut rua = Interpreter::new();
        rua.set_sandbox(&SandboxPolicy::default().with_memory_limit(Some(1 << 16)));
        let err = rua
            .eval("local s = 'x' while true do s = s .. s end")
            .unwrap_err();
        assert_eq!(err.kind(), RuaErrorKind::ResourceExhausted);
    }

    #[test]
    fn wall_clock_deadline_fires() {
        let mut rua = Interpreter::new();
        rua.set_sandbox(
            &SandboxPolicy::default().with_wall_clock(Some(std::time::Duration::from_millis(10))),
        );
        let err = rua.eval("while true do end").unwrap_err();
        assert_eq!(err.kind(), RuaErrorKind::ResourceExhausted);
        assert!(err.message().contains("deadline"));
    }

    #[test]
    fn call_depth_cap_is_configurable() {
        let mut rua = Interpreter::new();
        rua.set_sandbox(&SandboxPolicy::default().with_max_call_depth(10));
        let err = rua
            .eval("local function f(n) return f(n + 1) end return f(0)")
            .unwrap_err();
        assert_eq!(err.kind(), RuaErrorKind::ResourceExhausted);
        assert!(err.message().contains("stack overflow"));
    }

    #[test]
    fn pcall_cannot_swallow_resource_errors() {
        let mut rua = Interpreter::new();
        rua.set_sandbox(&SandboxPolicy::default().with_memory_limit(Some(1 << 16)));
        // A catching pcall would return (false, msg) and let the chunk
        // run to completion; the re-raise makes the whole eval fail.
        let err = rua
            .eval(
                "local ok, msg = pcall(function() local s = 'x' while true do s = s .. s end end)
                 return ok, msg",
            )
            .unwrap_err();
        assert_eq!(err.kind(), RuaErrorKind::ResourceExhausted);
        // Plain runtime errors stay catchable.
        let out = rua
            .eval("local ok, msg = pcall(function() error('boom') end) return ok, msg")
            .unwrap();
        assert_eq!(out[0], Value::Bool(false));
    }

    #[test]
    fn remote_profile_strips_host_escapes() {
        let mut rua = Interpreter::new();
        rua.set_reader(|_| Some("secret".to_owned()));
        rua.set_sandbox(&SandboxPolicy::remote());
        for src in [
            "print('leak')",
            "readfrom('/etc/passwd')",
            "read('*a')",
            "return _G.x",
        ] {
            let err = rua.eval(src).unwrap_err();
            assert!(
                err.message().contains("call a nil") || err.message().contains("index a nil"),
                "{src}: {err}"
            );
        }
        // The computational stdlib survives.
        assert_eq!(
            rua.eval("return math.floor(2.9)").unwrap(),
            vec![Value::Num(2.0)]
        );
    }

    #[test]
    fn compile_returns_callable_chunk() {
        let mut rua = Interpreter::new();
        let f = rua.compile("return 40 + 2").unwrap();
        assert_eq!(rua.call(&f, vec![]).unwrap(), vec![Value::Num(42.0)]);
    }

    #[test]
    fn compile_function_accepts_both_idioms() {
        let mut rua = Interpreter::new();
        let f = rua
            .compile_function("function(a, b) return a + b end")
            .unwrap();
        assert_eq!(
            rua.call(&f, vec![Value::Num(1.0), Value::Num(2.0)])
                .unwrap(),
            vec![Value::Num(3.0)]
        );
        let f = rua
            .compile_function("local k = 10\nreturn function(x) return x * k end")
            .unwrap();
        assert_eq!(
            rua.call(&f, vec![Value::Num(4.0)]).unwrap(),
            vec![Value::Num(40.0)]
        );
        assert!(rua.compile_function("return 42").is_err());
    }

    #[test]
    fn eval_expr_sugar() {
        let mut rua = Interpreter::new();
        assert_eq!(rua.eval_expr("1 + 1").unwrap(), Value::Num(2.0));
    }

    #[test]
    fn native_functions_integrate() {
        let mut rua = Interpreter::new();
        rua.register("add", |_, args| {
            let a = args.first().and_then(Value::as_num).unwrap_or(0.0);
            let b = args.get(1).and_then(Value::as_num).unwrap_or(0.0);
            Ok(vec![Value::Num(a + b)])
        });
        assert_eq!(rua.eval("return add(2, 3)").unwrap(), vec![Value::Num(5.0)]);
    }

    #[test]
    fn missing_arguments_become_nil() {
        assert_eq!(
            eval1("local function f(a, b) return b end return f(1)"),
            Value::Nil
        );
    }

    #[test]
    fn extra_arguments_are_dropped() {
        assert_eq!(
            eval1("local function f(a) return a end return f(1, 2, 3)"),
            Value::Num(1.0)
        );
    }

    #[test]
    fn calling_a_non_function_errors() {
        let e = eval_err("local x = 5 return x()");
        assert!(e.to_string().contains("call a number"));
    }

    #[test]
    fn globals_are_shared_across_evals() {
        let mut rua = Interpreter::new();
        rua.eval("counter = 10").unwrap();
        assert_eq!(
            rua.eval("return counter + 1").unwrap(),
            vec![Value::Num(11.0)]
        );
    }
}
