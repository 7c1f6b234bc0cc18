//! The tracing engine that drives observers.

use std::collections::HashMap;

use crate::error::TraceError;
use crate::event::{Addr, MemAccess, OpClass, RuntimeEvent};
use crate::ids::{FunctionId, ThreadId};
use crate::observer::ExecutionObserver;
use crate::symbols::SymbolTable;

#[derive(Debug, Default)]
struct ThreadState {
    stack: Vec<FunctionId>,
    in_syscall: bool,
}

/// Drives a traced execution, validating event balance and forwarding
/// each event to an [`ExecutionObserver`].
///
/// Traces are a single interleaved stream; [`Engine::switch_thread`]
/// moves the cursor between per-thread call stacks, so multi-threaded
/// guests are expressed exactly as a DBI framework would observe them.
///
/// `Engine` is the direct-tracing producer: synthetic workloads call its
/// methods to describe the work a real binary would perform. The guest VM
/// in `sigil-vm` emits through an `Engine` too, so every event stream in
/// the workspace is validated the same way.
///
/// # Example
///
/// ```
/// use sigil_trace::{Engine, OpClass, observer::RecordingObserver};
///
/// let mut engine = Engine::new(RecordingObserver::new());
/// let main = engine.symbols_mut().intern("main");
/// let kernel = engine.symbols_mut().intern("kernel");
/// engine.call(main);
/// engine.scoped(kernel, |e| {
///     e.op(OpClass::FloatArith, 100);
///     e.write(0x2000, 64);
/// });
/// engine.ret();
/// let trace = engine.finish();
/// assert_eq!(trace.events().len(), 6);
/// ```
#[derive(Debug)]
pub struct Engine<O> {
    symbols: SymbolTable,
    observer: O,
    threads: HashMap<ThreadId, ThreadState>,
    current: ThreadId,
    events_emitted: u64,
}

impl<O: ExecutionObserver> Engine<O> {
    /// Creates an engine delivering events to `observer`, with a fresh
    /// symbol table.
    pub fn new(observer: O) -> Self {
        Engine::with_symbols(observer, SymbolTable::new())
    }

    /// Creates an engine with a pre-populated symbol table (e.g. shared
    /// across several profiled runs of the same workload).
    pub fn with_symbols(observer: O, symbols: SymbolTable) -> Self {
        Engine {
            symbols,
            observer,
            threads: HashMap::from([(ThreadId::MAIN, ThreadState::default())]),
            current: ThreadId::MAIN,
            events_emitted: 0,
        }
    }

    fn state(&self) -> &ThreadState {
        self.threads
            .get(&self.current)
            .expect("current thread exists")
    }

    fn state_mut(&mut self) -> &mut ThreadState {
        self.threads.entry(self.current).or_default()
    }

    /// Shared access to the symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Mutable access to the symbol table, for interning function names.
    pub fn symbols_mut(&mut self) -> &mut SymbolTable {
        &mut self.symbols
    }

    /// Shared access to the observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// Number of events emitted so far.
    pub fn events_emitted(&self) -> u64 {
        self.events_emitted
    }

    /// Current call depth on the current thread.
    pub fn depth(&self) -> usize {
        self.state().stack.len()
    }

    /// The function currently on top of the current thread's call stack,
    /// if any.
    pub fn current_function(&self) -> Option<FunctionId> {
        self.state().stack.last().copied()
    }

    /// The thread currently executing.
    pub fn current_thread(&self) -> ThreadId {
        self.current
    }

    #[inline]
    fn emit(&mut self, event: RuntimeEvent) {
        self.events_emitted += 1;
        self.observer.on_event(event);
    }

    /// Switches execution to `thread` (a no-op if it is already
    /// current), emitting a `ThreadSwitch` event. A previously unseen
    /// thread starts with an empty call stack.
    ///
    /// # Attribution semantics
    ///
    /// Every event is attributed to the thread that is current *when it
    /// is emitted*; a switch takes effect only for subsequent events.
    /// Events are atomic — there is no partially-emitted memory access
    /// to strand — so a read emitted before a switch and a write after
    /// it belong to different threads by construction (that is exactly
    /// how inter-thread communication is expressed). Call frames and
    /// syscall state are per-thread: a `ret` or `syscall_exit` issued on
    /// a thread with no matching `call`/`syscall_enter` panics even if
    /// another thread has an open frame, and
    /// [`Engine::validate`] sums open frames across *all* threads, so a
    /// thread that is switched away from and never resumed still fails
    /// balance checks if it left frames open.
    pub fn switch_thread(&mut self, thread: ThreadId) {
        if thread == self.current {
            return;
        }
        self.current = thread;
        self.threads.entry(thread).or_default();
        self.emit(RuntimeEvent::ThreadSwitch { thread });
    }

    /// Emits a `Call` into `callee`.
    pub fn call(&mut self, callee: FunctionId) {
        self.state_mut().stack.push(callee);
        self.emit(RuntimeEvent::Call { callee });
    }

    /// Emits a `Return` from the current function.
    ///
    /// # Panics
    ///
    /// Panics if no function is active on the current thread.
    pub fn ret(&mut self) {
        if self.state_mut().stack.pop().is_none() {
            panic!("{}", TraceError::ReturnWithoutCall);
        }
        self.emit(RuntimeEvent::Return);
    }

    /// Calls `callee`, runs `body`, and returns — the common shape for
    /// workload code.
    pub fn scoped<R>(&mut self, callee: FunctionId, body: impl FnOnce(&mut Self) -> R) -> R {
        self.call(callee);
        let result = body(self);
        self.ret();
        result
    }

    /// Interns `name` and runs `body` inside a call to it.
    pub fn scoped_named<R>(&mut self, name: &str, body: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.symbols.intern(name);
        self.scoped(id, body)
    }

    /// Emits a read of `size` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the access runs past the end of the
    /// 64-bit address space.
    pub fn read(&mut self, addr: Addr, size: u32) {
        let access = admit(addr, size);
        self.emit(RuntimeEvent::Read { access });
    }

    /// Emits a write of `size` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or the access runs past the end of the
    /// 64-bit address space.
    pub fn write(&mut self, addr: Addr, size: u32) {
        let access = admit(addr, size);
        self.emit(RuntimeEvent::Write { access });
    }

    /// Emits a read-modify-write of `size` bytes at `addr`, plus one op.
    pub fn update(&mut self, addr: Addr, size: u32, class: OpClass) {
        self.read(addr, size);
        self.op(class, 1);
        self.write(addr, size);
    }

    /// Emits `count` retired operations of `class`. `count == 0` is a no-op.
    pub fn op(&mut self, class: OpClass, count: u32) {
        if count == 0 {
            return;
        }
        self.emit(RuntimeEvent::Op { class, count });
    }

    /// Emits a conditional-branch outcome at branch site `site`.
    pub fn branch(&mut self, site: u64, taken: bool) {
        self.emit(RuntimeEvent::Branch { site, taken });
    }

    /// Enters a named system call; reads/writes until [`Engine::syscall_exit`]
    /// are boundary traffic of the opaque syscall entity.
    pub fn syscall_enter(&mut self, name: &str) {
        let id = self.symbols.intern(name);
        self.state_mut().in_syscall = true;
        self.emit(RuntimeEvent::SyscallEnter { name: id });
    }

    /// Exits the current system call.
    ///
    /// # Panics
    ///
    /// Panics if no system call is active on the current thread.
    pub fn syscall_exit(&mut self) {
        if !self.state().in_syscall {
            panic!("{}", TraceError::SyscallExitWithoutEnter);
        }
        self.state_mut().in_syscall = false;
        self.emit(RuntimeEvent::SyscallExit);
    }

    /// Runs `body` bracketed by a named system call.
    pub fn syscall<R>(&mut self, name: &str, body: impl FnOnce(&mut Self) -> R) -> R {
        self.syscall_enter(name);
        let result = body(self);
        self.syscall_exit();
        result
    }

    /// Checks that the trace is balanced so far, across every thread.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::UnbalancedTrace`] if call frames remain open
    /// on any thread.
    pub fn validate(&self) -> Result<(), TraceError> {
        let depth: usize = self.threads.values().map(|t| t.stack.len()).sum();
        if depth == 0 {
            Ok(())
        } else {
            Err(TraceError::UnbalancedTrace { depth })
        }
    }

    /// Ends the trace, notifying the observer, and returns it.
    ///
    /// # Panics
    ///
    /// Panics if call frames remain open.
    pub fn finish(mut self) -> O {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self.observer.on_finish();
        self.observer
    }

    /// Ends the trace and returns both the observer and the symbol table.
    ///
    /// # Panics
    ///
    /// Panics if call frames remain open.
    pub fn finish_with_symbols(mut self) -> (O, SymbolTable) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        self.observer.on_finish();
        (self.observer, self.symbols)
    }
}

/// The access of `size` bytes at `addr`.
///
/// # Panics
///
/// Panics unless it covers at least one byte and ends inside the
/// address space.
#[inline]
fn admit(addr: Addr, size: u32) -> MemAccess {
    let access = MemAccess::new(addr, size);
    if access.is_empty() {
        panic!("{}", TraceError::EmptyAccess);
    }
    if access.checked_end().is_none() {
        panic!("{}", TraceError::AccessPastAddressSpace { addr, size });
    }
    access
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::{CountingObserver, RecordingObserver};

    #[test]
    fn scoped_emits_call_and_return() {
        let mut e = Engine::new(RecordingObserver::new());
        let f = e.symbols_mut().intern("f");
        e.scoped(f, |e| e.op(OpClass::IntArith, 1));
        let events = e.finish().into_events();
        assert!(matches!(events[0], RuntimeEvent::Call { .. }));
        assert!(matches!(events[2], RuntimeEvent::Return));
    }

    #[test]
    fn update_is_read_op_write() {
        let mut e = Engine::new(RecordingObserver::new());
        let f = e.symbols_mut().intern("f");
        e.call(f);
        e.update(0x40, 4, OpClass::IntArith);
        e.ret();
        let events = e.finish().into_events();
        assert!(matches!(events[1], RuntimeEvent::Read { .. }));
        assert!(matches!(events[2], RuntimeEvent::Op { .. }));
        assert!(matches!(events[3], RuntimeEvent::Write { .. }));
    }

    #[test]
    #[should_panic(expected = "return event without an active call")]
    fn unbalanced_return_panics() {
        let mut e = Engine::new(CountingObserver::new());
        e.ret();
    }

    #[test]
    #[should_panic(expected = "unclosed call frames")]
    fn finish_panics_on_open_frames() {
        let mut e = Engine::new(CountingObserver::new());
        let f = e.symbols_mut().intern("f");
        e.call(f);
        let _ = e.finish();
    }

    #[test]
    fn zero_op_count_emits_nothing() {
        let mut e = Engine::new(CountingObserver::new());
        e.op(OpClass::Agu, 0);
        assert_eq!(e.events_emitted(), 0);
    }

    #[test]
    #[should_panic(expected = "memory access with zero size")]
    fn zero_size_read_panics() {
        let mut e = Engine::new(CountingObserver::new());
        e.read(0x0, 0);
    }

    #[test]
    #[should_panic(expected = "runs past the end of the 64-bit address space")]
    fn read_past_the_address_space_panics() {
        let mut e = Engine::new(CountingObserver::new());
        e.read(u64::MAX - 3, 8);
    }

    #[test]
    #[should_panic(expected = "runs past the end of the 64-bit address space")]
    fn write_past_the_address_space_panics() {
        let mut e = Engine::new(CountingObserver::new());
        e.write(u64::MAX - 3, 8);
    }

    #[test]
    fn syscall_brackets_events() {
        let mut e = Engine::new(RecordingObserver::new());
        e.syscall("read", |e| e.write(0x100, 16));
        let events = e.finish().into_events();
        assert!(matches!(events[0], RuntimeEvent::SyscallEnter { .. }));
        assert!(matches!(events[1], RuntimeEvent::Write { .. }));
        assert!(matches!(events[2], RuntimeEvent::SyscallExit));
    }

    #[test]
    #[should_panic(expected = "syscall exit without a matching syscall enter")]
    fn syscall_exit_without_enter_panics() {
        let mut e = Engine::new(CountingObserver::new());
        e.syscall_exit();
    }

    #[test]
    fn current_function_tracks_stack() {
        let mut e = Engine::new(CountingObserver::new());
        let a = e.symbols_mut().intern("a");
        let b = e.symbols_mut().intern("b");
        assert_eq!(e.current_function(), None);
        e.call(a);
        assert_eq!(e.current_function(), Some(a));
        e.call(b);
        assert_eq!(e.current_function(), Some(b));
        assert_eq!(e.depth(), 2);
        e.ret();
        assert_eq!(e.current_function(), Some(a));
        e.ret();
        assert_eq!(e.depth(), 0);
    }

    #[test]
    fn switch_between_accesses_attributes_each_side_to_its_thread() {
        // A "pending" access cannot straddle a switch: events are atomic,
        // so the read lands on MAIN and the write on thread 1, with the
        // ThreadSwitch ordered strictly between them.
        let mut e = Engine::new(RecordingObserver::new());
        let f = e.symbols_mut().intern("f");
        e.call(f);
        e.read(0x100, 8);
        e.switch_thread(ThreadId::from_raw(1));
        e.write(0x100, 8);
        e.switch_thread(ThreadId::MAIN);
        e.ret();
        let events = e.finish().into_events();
        assert!(matches!(events[1], RuntimeEvent::Read { .. }));
        assert!(matches!(
            events[2],
            RuntimeEvent::ThreadSwitch { thread } if thread == ThreadId::from_raw(1)
        ));
        assert!(matches!(events[3], RuntimeEvent::Write { .. }));
    }

    #[test]
    fn switch_to_never_resumed_thread_is_balanced_if_it_left_no_frames() {
        let mut e = Engine::new(CountingObserver::new());
        e.switch_thread(ThreadId::from_raw(9));
        e.op(OpClass::IntArith, 1);
        e.switch_thread(ThreadId::MAIN);
        assert!(e.validate().is_ok());
        assert_eq!(e.finish().counts().thread_switches, 2);
    }

    #[test]
    #[should_panic(expected = "unclosed call frames")]
    fn abandoned_thread_with_open_frame_fails_balance() {
        let mut e = Engine::new(CountingObserver::new());
        let f = e.symbols_mut().intern("f");
        e.switch_thread(ThreadId::from_raw(3));
        e.call(f);
        // Switch away and never resume thread 3: its open frame must
        // still be caught at finish.
        e.switch_thread(ThreadId::MAIN);
        let _ = e.finish();
    }

    #[test]
    #[should_panic(expected = "return event without an active call")]
    fn ret_on_wrong_thread_panics_despite_open_frame_elsewhere() {
        let mut e = Engine::new(CountingObserver::new());
        let f = e.symbols_mut().intern("f");
        e.call(f);
        e.switch_thread(ThreadId::from_raw(1));
        // MAIN has an open frame, but thread 1 does not: stacks are
        // per-thread, so this return has no matching call.
        e.ret();
    }

    #[test]
    #[should_panic(expected = "syscall exit without a matching syscall enter")]
    fn syscall_exit_on_wrong_thread_panics() {
        let mut e = Engine::new(CountingObserver::new());
        e.syscall_enter("read");
        e.switch_thread(ThreadId::from_raw(1));
        e.syscall_exit();
    }

    #[test]
    fn finish_with_symbols_returns_table() {
        let mut e = Engine::new(CountingObserver::new());
        e.symbols_mut().intern("main");
        let (_obs, syms) = e.finish_with_symbols();
        assert_eq!(syms.len(), 1);
    }
}
