//! Test-only flow helpers shared by the unit tests of the sweep drivers.

use archrel_expr::Expr;
use archrel_model::{FlowBuilder, FlowState, StateId};

/// Call-free states [`to_end_via_tail`] appends. With any flow's own
/// states plus `Start` and `End`, the augmented chain has more than
/// `AUTO_DENSE_MAX_STATES` (64) states: `Auto`'s sparse regime, where an
/// acyclic flow is answered from a plan's tape and the sweep drivers stage
/// it.
pub(crate) const TAIL_STATES: usize = 64;

/// Leaves `from` for `End` with probability `p` through [`TAIL_STATES`]
/// call-free states `tail0 → tail1 → … → End`. The tail fails nowhere and
/// adds no branching, so it lengthens the flow without moving its answer
/// much, and it keeps an acyclic flow acyclic.
pub(crate) fn to_end_via_tail(flow: FlowBuilder, from: &str, p: Expr) -> FlowBuilder {
    let tail = |i: usize| StateId::named(format!("tail{i}"));
    let mut flow = flow.transition(from, tail(0), p);
    for i in 0..TAIL_STATES {
        flow = flow.state(FlowState::new(tail(i), vec![]));
        let next = if i + 1 == TAIL_STATES {
            StateId::End
        } else {
            tail(i + 1)
        };
        flow = flow.transition(tail(i), next, Expr::one());
    }
    flow
}
