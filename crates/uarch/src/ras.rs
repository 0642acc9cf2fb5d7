/// A return-address stack (RAS) of fixed depth with wrap-around on
/// overflow, as in real frontends.
///
/// # Example
///
/// ```
/// use crisp_uarch::Ras;
/// let mut ras = Ras::new(16);
/// ras.push(0x104);
/// ras.push(0x208);
/// assert_eq!(ras.pop(), Some(0x208));
/// assert_eq!(ras.pop(), Some(0x104));
/// assert_eq!(ras.pop(), None);
/// ```
#[derive(Clone, Debug)]
pub struct Ras {
    stack: Vec<u64>,
    top: usize,
    depth: usize,
    capacity: usize,
}

impl Ras {
    /// Creates a RAS holding up to `capacity` return addresses.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Ras {
        assert!(capacity > 0, "RAS capacity must be positive");
        Ras {
            stack: vec![0; capacity],
            top: 0,
            depth: 0,
            capacity,
        }
    }

    /// Pushes a return address (on a call). Overflow overwrites the oldest
    /// entry.
    pub fn push(&mut self, ret_addr: u64) {
        self.top = (self.top + 1) % self.capacity;
        self.stack[self.top] = ret_addr;
        self.depth = (self.depth + 1).min(self.capacity);
    }

    /// Pops the predicted return address (on a return), or `None` when
    /// empty.
    pub fn pop(&mut self) -> Option<u64> {
        if self.depth == 0 {
            return None;
        }
        let v = self.stack[self.top];
        self.top = (self.top + self.capacity - 1) % self.capacity;
        self.depth -= 1;
        Some(v)
    }

    /// Current number of valid entries.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Discards all entries (e.g. on a pipeline flush in simpler recovery
    /// schemes).
    pub fn clear(&mut self) {
        self.depth = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = Ras::new(8);
        for a in [1u64, 2, 3] {
            r.push(a);
        }
        assert_eq!(r.depth(), 3);
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), Some(1));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overflow_wraps_and_keeps_newest() {
        let mut r = Ras::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        // Deep frame lost: returns stale slot or empty, never 1.
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn interleaved_push_pop() {
        let mut r = Ras::new(4);
        r.push(10);
        assert_eq!(r.pop(), Some(10));
        r.push(20);
        r.push(30);
        assert_eq!(r.pop(), Some(30));
        r.push(40);
        assert_eq!(r.pop(), Some(40));
        assert_eq!(r.pop(), Some(20));
    }

    #[test]
    fn clear_empties() {
        let mut r = Ras::new(4);
        r.push(1);
        r.clear();
        assert_eq!(r.depth(), 0);
        assert_eq!(r.pop(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = Ras::new(0);
    }
}
