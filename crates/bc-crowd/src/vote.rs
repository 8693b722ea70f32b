//! Majority voting over worker answers.

use bc_ctable::Relation;

/// Combines worker answers by strict-plurality majority vote.
///
/// Returns `None` when no single relation received strictly more votes than
/// every other — an empty slice, a 2-2-2 split, or any shared maximum. A
/// `None` is the platform's signal that the task ended
/// [`Inconsistent`](crate::task::TaskOutcome::Inconsistent): callers decide
/// whether to requeue, escalate, or give up.
pub fn majority_vote(answers: &[Relation]) -> Option<Relation> {
    let counts = tally(answers);
    let best = counts.into_iter().max().expect("three counters");
    if best == 0 {
        return None;
    }
    let mut tied = [Relation::Lt, Relation::Eq, Relation::Gt]
        .into_iter()
        .filter(|&r| counts[r as usize] == best);
    let winner = tied.next().expect("some relation reaches the maximum");
    if tied.next().is_some() {
        None
    } else {
        Some(winner)
    }
}

fn tally(answers: &[Relation]) -> [usize; 3] {
    let mut counts = [0usize; 3];
    for &a in answers {
        counts[a as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_majority_wins() {
        assert_eq!(
            majority_vote(&[Relation::Gt, Relation::Gt, Relation::Lt]),
            Some(Relation::Gt)
        );
    }

    #[test]
    fn unanimous() {
        assert_eq!(
            majority_vote(&[Relation::Eq, Relation::Eq, Relation::Eq]),
            Some(Relation::Eq)
        );
    }

    #[test]
    fn single_answer_passes_through() {
        assert_eq!(majority_vote(&[Relation::Lt]), Some(Relation::Lt));
    }

    #[test]
    fn empty_is_inconclusive() {
        assert_eq!(majority_vote(&[]), None);
    }

    #[test]
    fn two_two_two_split_is_inconclusive() {
        let answers = [
            Relation::Lt,
            Relation::Lt,
            Relation::Eq,
            Relation::Eq,
            Relation::Gt,
            Relation::Gt,
        ];
        assert_eq!(majority_vote(&answers), None);
    }

    #[test]
    fn pairwise_tie_is_inconclusive() {
        assert_eq!(
            majority_vote(&[Relation::Lt, Relation::Gt, Relation::Gt, Relation::Lt]),
            None
        );
        // A strict plurality over the same relations settles.
        assert_eq!(
            majority_vote(&[Relation::Lt, Relation::Gt, Relation::Gt]),
            Some(Relation::Gt)
        );
    }
}
