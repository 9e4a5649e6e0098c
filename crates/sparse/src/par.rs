//! One scoped thread per part: the set-up passes over a run's shards
//! (the contiguous copy and the per-shard sequence refresh) fan out
//! through [`map_each`].

/// Units of work (one copied non-zero, one drawn index) below which a
/// part stays on the caller's thread. A scoped spawn and join cost
/// about 50 µs on a 2-vCPU x86-64 VM, where a unit costs 8–16 ns, so a
/// part breaks even near 5 k units; this bound asks for about three
/// times that. Small datasets thus set up as they did serially, and a
/// 100 k-row, two-shard run gets a thread per shard.
pub const MIN_WORK_PER_THREAD: usize = 1 << 14;

/// `f` applied to every item; the results come back in item order.
///
/// `work` is the items' total work in units (see
/// [`MIN_WORK_PER_THREAD`]). When the items carry at least that much
/// each on average, every item after the first runs on a scoped thread
/// of its own and the first on the caller's thread; otherwise, and for
/// a single item, all run on the caller's thread. Each call sees only
/// its own item, so no result depends on which threads ran it or on
/// how many cores there are. A panic in any call is re-raised on the
/// caller's thread once every thread has finished.
pub fn map_each<I, U>(items: I, work: usize, f: impl Fn(I::Item) -> U + Sync) -> Vec<U>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator,
    I::Item: Send,
    U: Send,
{
    let mut items = items.into_iter();
    if work < MIN_WORK_PER_THREAD.saturating_mul(items.len()) {
        return items.map(f).collect();
    }
    let Some(first) = items.next() else {
        return Vec::new();
    };
    let f = &f;
    std::thread::scope(|scope| {
        let rest: Vec<_> = items.map(|item| scope.spawn(move || f(item))).collect();
        let mut out = Vec::with_capacity(rest.len() + 1);
        out.push(f(first));
        for handle in rest {
            out.push(
                handle
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::{current, ThreadId};

    const MANY: usize = usize::MAX;

    #[test]
    fn results_come_back_in_item_order() {
        for work in [0, MANY] {
            assert_eq!(map_each(0..0u32, work, |x| x), Vec::<u32>::new());
            assert_eq!(map_each([7u32], work, |x| x + 1), vec![8]);
            assert_eq!(
                map_each(0..9u32, work, |x| x * x),
                (0..9u32).map(|x| x * x).collect::<Vec<_>>()
            );
            // Borrowed mutable items: each call writes its own.
            let mut cells = [0usize; 5];
            map_each(cells.iter_mut().enumerate(), work, |(k, c)| *c = k + 10);
            assert_eq!(cells, [10, 11, 12, 13, 14]);
        }
    }

    #[test]
    fn only_parts_worth_a_thread_get_one() {
        let ids = |work: usize| -> Vec<ThreadId> { map_each(0..3, work, |_| current().id()) };
        let here = current().id();
        assert_eq!(ids(3 * MIN_WORK_PER_THREAD - 1), [here; 3]);
        let spread = ids(3 * MIN_WORK_PER_THREAD);
        assert_eq!(spread[0], here, "the first part stays on the caller");
        assert!(spread[1..].iter().all(|&id| id != here));
        assert_ne!(spread[1], spread[2]);
    }

    #[test]
    #[should_panic(expected = "item 3")]
    fn a_panicking_item_panics_the_caller() {
        map_each(0..5, MANY, |x| {
            if x == 3 {
                panic!("item 3");
            }
        });
    }
}
