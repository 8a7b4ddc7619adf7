//! Rolling-window effective-bandwidth series `b_eff(t)`.
//!
//! The registry feeds per-cycle grant counts into a [`BeffWindow`]; every
//! `window` cycles the mean grants-per-cycle of that window is appended to
//! the series. The series shows a run's start-up ramp; the exact transient
//! and period come from the steady-state solver, not from this series.

/// One point of the `b_eff(t)` series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowPoint {
    /// First cycle covered by the window.
    pub start_cycle: u64,
    /// One past the last cycle covered by the window.
    pub end_cycle: u64,
    /// Mean grants per clock period inside the window.
    pub beff: f64,
}

/// Accumulates per-cycle grant counts into fixed-size windows.
#[derive(Debug, Clone)]
pub struct BeffWindow {
    window: u64,
    cycles_in_window: u64,
    grants_in_window: u64,
    next_start: u64,
    series: Vec<WindowPoint>,
}

impl BeffWindow {
    /// A series with `window` cycles per point. `window` must be non-zero.
    #[must_use]
    pub fn new(window: u64) -> Self {
        assert!(window > 0, "window length must be non-zero");
        Self {
            window,
            cycles_in_window: 0,
            grants_in_window: 0,
            next_start: 0,
            series: Vec::new(),
        }
    }

    /// Window length in cycles.
    #[must_use]
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Feeds the grant count of one clock period.
    pub fn push_cycle(&mut self, grants: u64) {
        self.grants_in_window += grants;
        self.cycles_in_window += 1;
        if self.cycles_in_window == self.window {
            let start_cycle = self.next_start;
            let end_cycle = start_cycle + self.window;
            self.series.push(WindowPoint {
                start_cycle,
                end_cycle,
                beff: self.grants_in_window as f64 / self.window as f64,
            });
            self.next_start = end_cycle;
            self.cycles_in_window = 0;
            self.grants_in_window = 0;
        }
    }

    /// The completed windows so far (a trailing partial window is excluded).
    #[must_use]
    pub fn series(&self) -> &[WindowPoint] {
        &self.series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(window: &mut BeffWindow, grants_per_cycle: &[(u64, u64)]) {
        for &(grants, cycles) in grants_per_cycle {
            for _ in 0..cycles {
                window.push_cycle(grants);
            }
        }
    }

    #[test]
    fn windows_close_on_boundaries() {
        let mut w = BeffWindow::new(4);
        feed(&mut w, &[(2, 4), (1, 4), (1, 3)]);
        // Third window is partial and must not appear.
        assert_eq!(w.series().len(), 2);
        assert_eq!(
            w.series()[0],
            WindowPoint {
                start_cycle: 0,
                end_cycle: 4,
                beff: 2.0
            }
        );
        assert_eq!(
            w.series()[1],
            WindowPoint {
                start_cycle: 4,
                end_cycle: 8,
                beff: 1.0
            }
        );
    }
}
