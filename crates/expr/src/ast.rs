use std::collections::BTreeSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::{Bindings, ExprError, Result};

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum UnaryOp {
    /// Arithmetic negation.
    Neg,
    /// Natural logarithm (errors on non-positive input).
    Ln,
    /// Base-2 logarithm (errors on non-positive input).
    Log2,
    /// Exponential `e^x`.
    Exp,
    /// Square root (errors on negative input).
    Sqrt,
}

/// Binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division (errors on division by zero).
    Div,
    /// Exponentiation.
    Pow,
    /// Minimum of the operands.
    Min,
    /// Maximum of the operands.
    Max,
}

/// A symbolic expression over named parameters.
///
/// `Expr` is immutable and cheaply cloneable (shared subtrees via [`Arc`]).
/// Build expressions with the constructors and operator overloads:
///
/// ```
/// use archrel_expr::{Bindings, Expr};
///
/// # fn main() -> Result<(), archrel_expr::ExprError> {
/// // Marshalling cost of the paper's RPC connector: c * (ip + op)
/// let cost = Expr::num(50.0) * (Expr::param("ip") + Expr::param("op"));
/// let v = cost.eval(&Bindings::new().with("ip", 8.0).with("op", 2.0))?;
/// assert_eq!(v, 500.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// A numeric literal.
    Num(f64),
    /// A named parameter, resolved against a [`Bindings`] at evaluation time.
    Param(Arc<str>),
    /// A unary operation.
    Unary {
        /// The operation.
        op: UnaryOp,
        /// The operand.
        operand: Arc<Expr>,
    },
    /// A binary operation.
    Binary {
        /// The operation.
        op: BinaryOp,
        /// Left operand.
        left: Arc<Expr>,
        /// Right operand.
        right: Arc<Expr>,
    },
}

impl Expr {
    /// Numeric literal.
    pub fn num(value: f64) -> Expr {
        Expr::Num(value)
    }

    /// Named parameter.
    pub fn param(name: impl AsRef<str>) -> Expr {
        Expr::Param(Arc::from(name.as_ref()))
    }

    /// The constant zero.
    pub fn zero() -> Expr {
        Expr::Num(0.0)
    }

    /// The constant one.
    pub fn one() -> Expr {
        Expr::Num(1.0)
    }

    fn unary(op: UnaryOp, operand: Expr) -> Expr {
        Expr::Unary {
            op,
            operand: Arc::new(operand),
        }
    }

    fn binary(op: BinaryOp, left: Expr, right: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Arc::new(left),
            right: Arc::new(right),
        }
    }

    /// Natural logarithm.
    pub fn ln(self) -> Expr {
        Expr::unary(UnaryOp::Ln, self)
    }

    /// Base-2 logarithm.
    pub fn log2(self) -> Expr {
        Expr::unary(UnaryOp::Log2, self)
    }

    /// Exponential.
    pub fn exp(self) -> Expr {
        Expr::unary(UnaryOp::Exp, self)
    }

    /// Square root.
    pub fn sqrt(self) -> Expr {
        Expr::unary(UnaryOp::Sqrt, self)
    }

    /// Exponentiation `self ^ rhs`.
    pub fn pow(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Pow, self, rhs)
    }

    /// Minimum of `self` and `rhs`.
    pub fn min(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Min, self, rhs)
    }

    /// Maximum of `self` and `rhs`.
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Max, self, rhs)
    }

    /// Whether the expression is the literal `value`.
    pub fn is_const(&self, value: f64) -> bool {
        matches!(self, Expr::Num(v) if *v == value)
    }

    /// The literal value, if the expression is a constant.
    pub fn as_const(&self) -> Option<f64> {
        match self {
            Expr::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Evaluates the expression against an environment.
    ///
    /// # Errors
    ///
    /// - [`ExprError::UnboundParameter`] when a parameter has no binding;
    /// - [`ExprError::NonFinite`] when an operation produces NaN/∞ (division
    ///   by zero, logarithm of a non-positive value, overflow, ...).
    pub fn eval(&self, env: &Bindings) -> Result<f64> {
        let v = match self {
            Expr::Num(v) => *v,
            Expr::Param(name) => env.get(name).ok_or_else(|| ExprError::UnboundParameter {
                name: name.to_string(),
            })?,
            Expr::Unary { op, operand } => {
                let x = operand.eval(env)?;
                match op {
                    UnaryOp::Neg => -x,
                    UnaryOp::Ln => x.ln(),
                    UnaryOp::Log2 => x.log2(),
                    UnaryOp::Exp => x.exp(),
                    UnaryOp::Sqrt => x.sqrt(),
                }
            }
            Expr::Binary { op, left, right } => {
                let a = left.eval(env)?;
                let b = right.eval(env)?;
                match op {
                    BinaryOp::Add => a + b,
                    BinaryOp::Sub => a - b,
                    BinaryOp::Mul => a * b,
                    BinaryOp::Div => a / b,
                    BinaryOp::Pow => a.powf(b),
                    BinaryOp::Min => a.min(b),
                    BinaryOp::Max => a.max(b),
                }
            }
        };
        if v.is_finite() {
            Ok(v)
        } else {
            Err(ExprError::NonFinite {
                operation: self.to_string(),
            })
        }
    }

    /// The set of parameter names occurring in the expression.
    pub fn free_params(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_params(&mut out);
        out
    }

    fn collect_params(&self, out: &mut BTreeSet<String>) {
        match self {
            Expr::Num(_) => {}
            Expr::Param(name) => {
                out.insert(name.to_string());
            }
            Expr::Unary { operand, .. } => operand.collect_params(out),
            Expr::Binary { left, right, .. } => {
                left.collect_params(out);
                right.collect_params(out);
            }
        }
    }

    /// Whether the expression contains no parameters.
    pub fn is_closed(&self) -> bool {
        self.free_params().is_empty()
    }

    /// Substitutes `replacement` for every occurrence of parameter `name`.
    ///
    /// This is how the engine composes analytic interfaces: a callee's cost
    /// formula in terms of *its* formal parameters is substituted with the
    /// caller's actual-parameter expressions (`ap_j(fp)`), producing a
    /// formula in the caller's formal parameters.
    pub fn substitute(&self, name: &str, replacement: &Expr) -> Expr {
        match self {
            Expr::Num(_) => self.clone(),
            Expr::Param(p) => {
                if p.as_ref() == name {
                    replacement.clone()
                } else {
                    self.clone()
                }
            }
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Arc::new(operand.substitute(name, replacement)),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Arc::new(left.substitute(name, replacement)),
                right: Arc::new(right.substitute(name, replacement)),
            },
        }
    }

    /// Substitutes several parameters at once (simultaneous, not sequential:
    /// replacements are not themselves rewritten).
    pub fn substitute_all(&self, substitutions: &[(&str, &Expr)]) -> Expr {
        match self {
            Expr::Num(_) => self.clone(),
            Expr::Param(p) => substitutions
                .iter()
                .find(|(name, _)| *name == p.as_ref())
                .map(|(_, e)| (*e).clone())
                .unwrap_or_else(|| self.clone()),
            Expr::Unary { op, operand } => Expr::Unary {
                op: *op,
                operand: Arc::new(operand.substitute_all(substitutions)),
            },
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Arc::new(left.substitute_all(substitutions)),
                right: Arc::new(right.substitute_all(substitutions)),
            },
        }
    }

    /// Number of AST nodes — a size metric used by simplifier tests and the
    /// symbolic-evaluation benchmarks.
    pub fn node_count(&self) -> usize {
        match self {
            Expr::Num(_) | Expr::Param(_) => 1,
            Expr::Unary { operand, .. } => 1 + operand.node_count(),
            Expr::Binary { left, right, .. } => 1 + left.node_count() + right.node_count(),
        }
    }

    fn precedence(&self) -> u8 {
        match self {
            Expr::Num(v) if *v < 0.0 => 1,
            Expr::Num(_) | Expr::Param(_) => 4,
            Expr::Unary {
                op: UnaryOp::Neg, ..
            } => 1,
            Expr::Unary { .. } => 4, // function call syntax
            Expr::Binary { op, .. } => match op {
                BinaryOp::Add | BinaryOp::Sub => 1,
                BinaryOp::Mul | BinaryOp::Div => 2,
                BinaryOp::Pow => 3,
                BinaryOp::Min | BinaryOp::Max => 4, // function call syntax
            },
        }
    }

    fn fmt_child(&self, child: &Expr, min_prec: u8, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if child.precedence() < min_prec {
            write!(f, "({child})")
        } else {
            write!(f, "{child}")
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Num(v) => write!(f, "{v}"),
            Expr::Param(name) => write!(f, "{name}"),
            Expr::Unary { op, operand } => match op {
                UnaryOp::Neg => {
                    write!(f, "-")?;
                    self.fmt_child(operand, 4, f)
                }
                UnaryOp::Ln => write!(f, "ln({operand})"),
                UnaryOp::Log2 => write!(f, "log2({operand})"),
                UnaryOp::Exp => write!(f, "exp({operand})"),
                UnaryOp::Sqrt => write!(f, "sqrt({operand})"),
            },
            Expr::Binary { op, left, right } => match op {
                BinaryOp::Add => {
                    self.fmt_child(left, 1, f)?;
                    write!(f, " + ")?;
                    self.fmt_child(right, 1, f)
                }
                BinaryOp::Sub => {
                    self.fmt_child(left, 1, f)?;
                    write!(f, " - ")?;
                    self.fmt_child(right, 2, f)
                }
                BinaryOp::Mul => {
                    self.fmt_child(left, 2, f)?;
                    write!(f, " * ")?;
                    self.fmt_child(right, 2, f)
                }
                BinaryOp::Div => {
                    self.fmt_child(left, 2, f)?;
                    write!(f, " / ")?;
                    self.fmt_child(right, 3, f)
                }
                BinaryOp::Pow => {
                    self.fmt_child(left, 4, f)?;
                    write!(f, " ^ ")?;
                    self.fmt_child(right, 3, f)
                }
                BinaryOp::Min => write!(f, "min({left}, {right})"),
                BinaryOp::Max => write!(f, "max({left}, {right})"),
            },
        }
    }
}

/// Structural hash, consistent with `==`: equal expressions hash alike
/// (`0.0` and `-0.0` compare equal, so both hash as `0.0`).
impl Hash for Expr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Num(v) => (v + 0.0).to_bits().hash(state),
            Expr::Param(name) => name.hash(state),
            Expr::Unary { op, operand } => {
                op.hash(state);
                operand.hash(state);
            }
            Expr::Binary { op, left, right } => {
                op.hash(state);
                left.hash(state);
                right.hash(state);
            }
        }
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Expr {
        Expr::Num(v)
    }
}

impl Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Add, self, rhs)
    }
}

impl Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Sub, self, rhs)
    }
}

impl Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Mul, self, rhs)
    }
}

impl Div for Expr {
    type Output = Expr;
    fn div(self, rhs: Expr) -> Expr {
        Expr::binary(BinaryOp::Div, self, rhs)
    }
}

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr::unary(UnaryOp::Neg, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_and_param_eval() {
        let env = Bindings::new().with("x", 3.0);
        assert_eq!(Expr::num(2.5).eval(&env).unwrap(), 2.5);
        assert_eq!(Expr::param("x").eval(&env).unwrap(), 3.0);
    }

    #[test]
    fn equal_expressions_hash_alike() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |e: &Expr| {
            let mut h = DefaultHasher::new();
            e.hash(&mut h);
            h.finish()
        };
        let a = Expr::param("x") * Expr::num(0.0) + Expr::param("y").ln();
        let b = Expr::param("x") * Expr::num(-0.0) + Expr::param("y").ln();
        assert_eq!(a, b);
        assert_eq!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&(Expr::param("x") + Expr::param("y").ln())));
        assert_ne!(hash(&Expr::param("x")), hash(&Expr::param("z")));
    }

    #[test]
    fn unbound_parameter_errors() {
        let err = Expr::param("nope").eval(&Bindings::new()).unwrap_err();
        assert!(matches!(err, ExprError::UnboundParameter { .. }));
    }

    #[test]
    fn arithmetic_eval() {
        let env = Bindings::new().with("x", 4.0);
        let e = (Expr::param("x") + Expr::num(2.0)) * Expr::num(3.0) - Expr::num(1.0);
        assert_eq!(e.eval(&env).unwrap(), 17.0);
        let d = Expr::param("x") / Expr::num(2.0);
        assert_eq!(d.eval(&env).unwrap(), 2.0);
        assert_eq!((-Expr::param("x")).eval(&env).unwrap(), -4.0);
    }

    #[test]
    fn functions_eval() {
        let env = Bindings::new().with("n", 1024.0);
        assert_eq!(Expr::param("n").log2().eval(&env).unwrap(), 10.0);
        assert!((Expr::param("n").ln().eval(&env).unwrap() - 1024f64.ln()).abs() < 1e-12);
        assert_eq!(Expr::param("n").sqrt().eval(&env).unwrap(), 32.0);
        assert_eq!(Expr::num(0.0).exp().eval(&env).unwrap(), 1.0);
        assert_eq!(
            Expr::param("n").pow(Expr::num(0.5)).eval(&env).unwrap(),
            32.0
        );
        assert_eq!(
            Expr::param("n").min(Expr::num(5.0)).eval(&env).unwrap(),
            5.0
        );
        assert_eq!(
            Expr::param("n").max(Expr::num(5.0)).eval(&env).unwrap(),
            1024.0
        );
    }

    #[test]
    fn non_finite_is_an_error() {
        let env = Bindings::new();
        assert!(matches!(
            (Expr::num(1.0) / Expr::num(0.0)).eval(&env),
            Err(ExprError::NonFinite { .. })
        ));
        assert!(matches!(
            Expr::num(-1.0).ln().eval(&env),
            Err(ExprError::NonFinite { .. })
        ));
        assert!(matches!(
            Expr::num(-1.0).sqrt().eval(&env),
            Err(ExprError::NonFinite { .. })
        ));
        assert!(matches!(
            Expr::num(1e308).exp().eval(&env),
            Err(ExprError::NonFinite { .. })
        ));
    }

    #[test]
    fn free_params_collected() {
        let e = Expr::param("a") * (Expr::param("b") + Expr::param("a")).ln();
        let params = e.free_params();
        assert_eq!(
            params.into_iter().collect::<Vec<_>>(),
            vec!["a".to_string(), "b".to_string()]
        );
        assert!(!e.is_closed());
        assert!(Expr::num(4.0).is_closed());
    }

    #[test]
    fn substitution() {
        // sort's cost in its own formal param: list * log2(list).
        let cost = Expr::param("list") * Expr::param("list").log2();
        // caller passes list = 2 * n
        let actual = Expr::num(2.0) * Expr::param("n");
        let composed = cost.substitute("list", &actual);
        let env = Bindings::new().with("n", 8.0);
        assert_eq!(composed.eval(&env).unwrap(), 16.0 * 4.0);
        // original untouched
        assert_eq!(cost.free_params().len(), 1);
    }

    #[test]
    fn simultaneous_substitution_does_not_chain() {
        // x -> y, y -> 3 simultaneously: x + y becomes y + 3, not 3 + 3.
        let e = Expr::param("x") + Expr::param("y");
        let ey = Expr::param("y");
        let e3 = Expr::num(3.0);
        let result = e.substitute_all(&[("x", &ey), ("y", &e3)]);
        let env = Bindings::new().with("y", 10.0);
        assert_eq!(result.eval(&env).unwrap(), 13.0);
    }

    #[test]
    fn display_respects_precedence() {
        let e = (Expr::param("a") + Expr::param("b")) * Expr::param("c");
        assert_eq!(e.to_string(), "(a + b) * c");
        let e = Expr::param("a") + Expr::param("b") * Expr::param("c");
        assert_eq!(e.to_string(), "a + b * c");
        let e = Expr::param("a") - (Expr::param("b") - Expr::param("c"));
        assert_eq!(e.to_string(), "a - (b - c)");
        let e = Expr::param("n") * Expr::param("n").log2();
        assert_eq!(e.to_string(), "n * log2(n)");
    }

    #[test]
    fn node_count() {
        let e = Expr::param("a") + Expr::num(1.0);
        assert_eq!(e.node_count(), 3);
    }

    #[test]
    fn expr_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Expr>();
    }
}
