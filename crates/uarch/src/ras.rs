//! Return-address stack (paper Table 1: 64-entry).

use confluence_types::VAddr;

/// A fixed-capacity circular return-address stack.
///
/// Overflow wraps around (oldest entry overwritten), underflow returns
/// `None`; both match typical hardware behaviour.
#[derive(Clone, Debug)]
pub struct ReturnAddressStack {
    entries: Vec<VAddr>,
    top: usize,
    depth: usize,
}

impl ReturnAddressStack {
    /// Creates the paper's 64-entry configuration.
    pub fn new_64() -> Self {
        Self::with_capacity(64)
    }

    /// Creates a RAS with the given capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "RAS capacity must be nonzero");
        ReturnAddressStack {
            entries: vec![VAddr::default(); capacity],
            top: 0,
            depth: 0,
        }
    }

    /// Pushes a return address (call executed).
    pub fn push(&mut self, addr: VAddr) {
        self.top = (self.top + 1) % self.entries.len();
        self.entries[self.top] = addr;
        self.depth = (self.depth + 1).min(self.entries.len());
    }

    /// Pops the predicted return target, or `None` when empty.
    pub fn pop(&mut self) -> Option<VAddr> {
        if self.depth == 0 {
            return None;
        }
        let addr = self.entries[self.top];
        self.top = (self.top + self.entries.len() - 1) % self.entries.len();
        self.depth -= 1;
        Some(addr)
    }

    /// Peeks at the top entry without popping.
    pub fn peek(&self) -> Option<VAddr> {
        (self.depth > 0).then(|| self.entries[self.top])
    }

    /// Current number of valid entries.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut ras = ReturnAddressStack::with_capacity(4);
        ras.push(VAddr::new(0x10));
        ras.push(VAddr::new(0x20));
        assert_eq!(ras.pop(), Some(VAddr::new(0x20)));
        assert_eq!(ras.pop(), Some(VAddr::new(0x10)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn overflow_wraps_and_loses_oldest() {
        let mut ras = ReturnAddressStack::with_capacity(2);
        ras.push(VAddr::new(0x10));
        ras.push(VAddr::new(0x20));
        ras.push(VAddr::new(0x30)); // overwrites 0x10
        assert_eq!(ras.pop(), Some(VAddr::new(0x30)));
        assert_eq!(ras.pop(), Some(VAddr::new(0x20)));
        assert_eq!(ras.pop(), None);
    }

    #[test]
    fn peek_does_not_pop() {
        let mut ras = ReturnAddressStack::new_64();
        ras.push(VAddr::new(0x44));
        assert_eq!(ras.peek(), Some(VAddr::new(0x44)));
        assert_eq!(ras.depth(), 1);
    }
}
