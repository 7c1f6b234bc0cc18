//! The guest interpreter: executes a program while emitting trace events.

use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use sigil_trace::{Engine, ExecutionObserver, FunctionId, OpClass, ThreadId};

use crate::isa::{AluOp, FaluOp, Inst, Terminator};
use crate::memory::GuestMemory;
use crate::program::{BlockId, FuncId, Program};

/// A dynamic guest failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Trap {
    /// Integer division or remainder by zero.
    DivideByZero {
        /// Function in which the division executed.
        func: FuncId,
    },
    /// Call depth exceeded the interpreter limit.
    StackOverflow {
        /// The configured maximum depth.
        max_depth: usize,
    },
    /// The fuel budget was exhausted (likely an unbounded loop).
    OutOfFuel {
        /// The configured fuel budget.
        fuel: u64,
    },
    /// Every live guest thread is blocked in a `join` cycle.
    Deadlock,
}

impl fmt::Display for Trap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Trap::DivideByZero { func } => write!(f, "guest divided by zero in {func}"),
            Trap::StackOverflow { max_depth } => {
                write!(f, "guest exceeded call depth {max_depth}")
            }
            Trap::OutOfFuel { fuel } => write!(f, "guest exhausted fuel budget of {fuel}"),
            Trap::Deadlock => f.write_str("guest deadlocked: every live thread blocked on a join"),
        }
    }
}

impl Error for Trap {}

struct Frame {
    func: FuncId,
    regs: Vec<u64>,
    block: BlockId,
    ip: usize,
    ret_dst: Option<u16>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadStatus {
    Runnable,
    /// Waiting for the thread at this index to finish.
    Blocked(usize),
    Done,
}

/// One guest thread: its own call stack, scheduler state, and (for
/// threads that have never run) the deferred entry call.
struct ThreadCtx {
    stack: Vec<Frame>,
    status: ThreadStatus,
    /// `(entry function, argument registers)` of a spawned thread that
    /// the scheduler has not yet run. The entry `Call` event is emitted
    /// on first schedule, after the `ThreadSwitch`, so the interleaved
    /// trace stays causally ordered.
    pending_entry: Option<(FuncId, Vec<u64>)>,
}

/// Scheduler quantum bounds, in executed guest instructions.
const MIN_QUANTUM: u64 = 4;
const MAX_QUANTUM: u64 = 24;

/// Executes a verified [`Program`], emitting one [`sigil_trace`] event per
/// executed primitive — exactly what Valgrind's instrumentation exposes.
///
/// Event mapping:
///
/// | guest action | emitted events |
/// |---|---|
/// | `Imm`/`Mov`/`Alloc` | `Op(Agu, 1)` |
/// | `Alu` | `Op(IntArith/IntMulDiv, 1)` |
/// | `Falu` | `Op(FloatArith, 1)` |
/// | `Load` | `Op(Agu, 1)` + `Read` |
/// | `Store` | `Op(Agu, 1)` + `Write` |
/// | `Call`/entry | `Call` |
/// | `Ret` | `Return` |
/// | `Br` | `Branch { site, taken }` |
/// | `Spawn`/`Join` | `Op(Agu, 1)` |
/// | scheduler switch | `ThreadSwitch` |
///
/// # Threads
///
/// `Spawn` starts a new guest thread; a seeded scheduler interleaves all
/// runnable threads in random quanta of [`MIN_QUANTUM`] to [`MAX_QUANTUM`]
/// instructions, producing **one deterministic total order** per
/// `(program, schedule seed)` pair, lowered to `ThreadSwitch` events.
/// The RNG is consulted only when more than one thread is runnable, so
/// single-threaded programs emit byte-identical streams for every seed.
/// All threads share the fuel budget and guest memory; the program ends
/// when every thread has finished, returning the main thread's value. A
/// trap on any thread unwinds the open frames of *every* thread
/// (switching to each first) so the trace stays balanced.
#[derive(Debug)]
pub struct Interpreter<'p> {
    program: &'p Program,
    fuel: u64,
    max_depth: usize,
    schedule_seed: u64,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter with default limits (1 G fuel, depth 1024)
    /// and schedule seed 0.
    pub fn new(program: &'p Program) -> Self {
        Interpreter {
            program,
            fuel: 1_000_000_000,
            max_depth: 1024,
            schedule_seed: 0,
        }
    }

    /// Sets the fuel budget: the maximum number of executed instructions.
    #[must_use]
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = fuel;
        self
    }

    /// Sets the maximum call depth.
    #[must_use]
    pub fn with_max_depth(mut self, max_depth: usize) -> Self {
        self.max_depth = max_depth;
        self
    }

    /// Sets the thread-scheduler seed. Programs that never spawn are
    /// unaffected; multithreaded programs get a different (but still
    /// deterministic) interleaving per seed.
    #[must_use]
    pub fn with_schedule_seed(mut self, seed: u64) -> Self {
        self.schedule_seed = seed;
        self
    }

    /// Runs the program to completion with fresh guest memory.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on divide-by-zero, stack overflow, fuel
    /// exhaustion, or join deadlock.
    pub fn run<O: ExecutionObserver>(&self, engine: &mut Engine<O>) -> Result<Option<u64>, Trap> {
        let mut memory = GuestMemory::new();
        self.run_with_memory(engine, &mut memory)
    }

    /// Runs the program against caller-provided guest memory (e.g. with
    /// pre-initialized input buffers). Guest memory is shared by all
    /// guest threads.
    ///
    /// # Errors
    ///
    /// Returns a [`Trap`] on divide-by-zero, stack overflow, fuel
    /// exhaustion, or join deadlock.
    pub fn run_with_memory<O: ExecutionObserver>(
        &self,
        engine: &mut Engine<O>,
        memory: &mut GuestMemory,
    ) -> Result<Option<u64>, Trap> {
        // Register guest function names with the trace symbol table.
        let fn_ids: Vec<FunctionId> = self
            .program
            .functions
            .iter()
            .map(|f| engine.symbols_mut().intern(&f.name))
            .collect();

        let entry = self.program.entry_point();
        let mut threads = vec![ThreadCtx {
            stack: vec![Frame {
                func: entry,
                regs: vec![0; usize::from(self.program.function(entry).n_regs)],
                block: BlockId(0),
                ip: 0,
                ret_dst: None,
            }],
            status: ThreadStatus::Runnable,
            pending_entry: None,
        }];
        engine.call(fn_ids[entry.index()]);

        let mut rng = SmallRng::seed_from_u64(self.schedule_seed);
        let mut fuel = self.fuel;
        let mut final_ret: Option<u64> = None;
        let mut cur = 0usize;
        let mut quantum: u64 = 0;

        'exec: loop {
            // Wake joins whose target has finished.
            for i in 0..threads.len() {
                let ThreadStatus::Blocked(target) = threads[i].status else {
                    continue;
                };
                if threads[target].status == ThreadStatus::Done {
                    threads[i].status = ThreadStatus::Runnable;
                }
            }
            let runnable: Vec<usize> = threads
                .iter()
                .enumerate()
                .filter(|(_, t)| t.status == ThreadStatus::Runnable)
                .map(|(i, _)| i)
                .collect();
            if runnable.is_empty() {
                if threads.iter().all(|t| t.status == ThreadStatus::Done) {
                    break;
                }
                unwind_all(engine, &mut threads);
                return Err(Trap::Deadlock);
            }
            if quantum == 0 || threads[cur].status != ThreadStatus::Runnable {
                if runnable.len() == 1 {
                    // No choice: don't touch the RNG, so single-threaded
                    // programs are byte-identical across seeds. Quantum
                    // stays 0 so a newly runnable thread forces a draw.
                    cur = runnable[0];
                } else {
                    cur = runnable[rng.gen_range(0..runnable.len())];
                    quantum = rng.gen_range(MIN_QUANTUM..MAX_QUANTUM + 1);
                }
                engine.switch_thread(ThreadId::from_raw(
                    u32::try_from(cur).expect("thread count fits u32"),
                ));
                if let Some((func, regs)) = threads[cur].pending_entry.take() {
                    threads[cur].stack.push(Frame {
                        func,
                        regs,
                        block: BlockId(0),
                        ip: 0,
                        ret_dst: None,
                    });
                    engine.call(fn_ids[func.index()]);
                }
            }
            quantum = quantum.saturating_sub(1);

            if fuel == 0 {
                // Unwind open frames so the trace stays balanced.
                unwind_all(engine, &mut threads);
                return Err(Trap::OutOfFuel { fuel: self.fuel });
            }
            fuel -= 1;

            let (fid, bid, ip, depth) = {
                let ctx = &threads[cur];
                let frame = ctx.stack.last().expect("runnable thread has a frame");
                (frame.func, frame.block, frame.ip, ctx.stack.len())
            };
            let func = self.program.function(fid);
            let block = &func.blocks[bid.index()];

            if ip < block.insts.len() {
                threads[cur].stack.last_mut().expect("frame").ip += 1;
                match &block.insts[ip] {
                    Inst::Imm { dst, value } => {
                        let frame = threads[cur].stack.last_mut().expect("frame");
                        frame.regs[usize::from(*dst)] = *value;
                        engine.op(OpClass::Agu, 1);
                    }
                    Inst::Mov { dst, src } => {
                        let frame = threads[cur].stack.last_mut().expect("frame");
                        frame.regs[usize::from(*dst)] = frame.regs[usize::from(*src)];
                        engine.op(OpClass::Agu, 1);
                    }
                    Inst::Alu { op, dst, a, b } => {
                        let frame = threads[cur].stack.last_mut().expect("frame");
                        let va = frame.regs[usize::from(*a)];
                        let vb = frame.regs[usize::from(*b)];
                        let result = match op {
                            AluOp::Add => va.wrapping_add(vb),
                            AluOp::Sub => va.wrapping_sub(vb),
                            AluOp::Mul => va.wrapping_mul(vb),
                            AluOp::Div | AluOp::Rem if vb == 0 => {
                                unwind_all(engine, &mut threads);
                                return Err(Trap::DivideByZero { func: fid });
                            }
                            AluOp::Div => va / vb,
                            AluOp::Rem => va % vb,
                            AluOp::And => va & vb,
                            AluOp::Or => va | vb,
                            AluOp::Xor => va ^ vb,
                            AluOp::Shl => va.wrapping_shl((vb % 64) as u32),
                            AluOp::Shr => va.wrapping_shr((vb % 64) as u32),
                            AluOp::CmpLt => u64::from(va < vb),
                            AluOp::CmpEq => u64::from(va == vb),
                        };
                        frame.regs[usize::from(*dst)] = result;
                        let class = if op.is_muldiv() {
                            OpClass::IntMulDiv
                        } else {
                            OpClass::IntArith
                        };
                        engine.op(class, 1);
                    }
                    Inst::Falu { op, dst, a, b } => {
                        let frame = threads[cur].stack.last_mut().expect("frame");
                        let fa = f64::from_bits(frame.regs[usize::from(*a)]);
                        let fb = f64::from_bits(frame.regs[usize::from(*b)]);
                        let result = match op {
                            FaluOp::FAdd => (fa + fb).to_bits(),
                            FaluOp::FSub => (fa - fb).to_bits(),
                            FaluOp::FMul => (fa * fb).to_bits(),
                            FaluOp::FDiv => (fa / fb).to_bits(),
                            FaluOp::FCmpLt => u64::from(fa < fb),
                            FaluOp::FSqrt => fa.sqrt().to_bits(),
                        };
                        frame.regs[usize::from(*dst)] = result;
                        engine.op(OpClass::FloatArith, 1);
                    }
                    Inst::Load {
                        dst,
                        base,
                        offset,
                        size,
                    } => {
                        let frame = threads[cur].stack.last_mut().expect("frame");
                        let addr = frame.regs[usize::from(*base)].wrapping_add_signed(*offset);
                        engine.op(OpClass::Agu, 1);
                        engine.read(addr, u32::from(*size));
                        frame.regs[usize::from(*dst)] = memory.load(addr, *size);
                    }
                    Inst::Store {
                        src,
                        base,
                        offset,
                        size,
                    } => {
                        let frame = threads[cur].stack.last_mut().expect("frame");
                        let addr = frame.regs[usize::from(*base)].wrapping_add_signed(*offset);
                        engine.op(OpClass::Agu, 1);
                        engine.write(addr, u32::from(*size));
                        memory.store(addr, *size, frame.regs[usize::from(*src)]);
                    }
                    Inst::Alloc { dst, size } => {
                        let frame = threads[cur].stack.last_mut().expect("frame");
                        let bytes = frame.regs[usize::from(*size)];
                        frame.regs[usize::from(*dst)] = memory.alloc(bytes);
                        engine.op(OpClass::Agu, 1);
                    }
                    Inst::Call { func, args, dst } => {
                        if depth >= self.max_depth {
                            unwind_all(engine, &mut threads);
                            return Err(Trap::StackOverflow {
                                max_depth: self.max_depth,
                            });
                        }
                        let callee = self.program.function(*func);
                        let mut regs = vec![0u64; usize::from(callee.n_regs)];
                        {
                            let frame = threads[cur].stack.last().expect("frame");
                            for (i, &arg) in args.iter().enumerate() {
                                regs[i] = frame.regs[usize::from(arg)];
                            }
                        }
                        threads[cur].stack.push(Frame {
                            func: *func,
                            regs,
                            block: BlockId(0),
                            ip: 0,
                            ret_dst: *dst,
                        });
                        engine.call(fn_ids[func.index()]);
                        continue 'exec;
                    }
                    Inst::Spawn { func, args, dst } => {
                        let callee = self.program.function(*func);
                        let mut regs = vec![0u64; usize::from(callee.n_regs)];
                        {
                            let frame = threads[cur].stack.last().expect("frame");
                            for (i, &arg) in args.iter().enumerate() {
                                regs[i] = frame.regs[usize::from(arg)];
                            }
                        }
                        let handle = threads.len() as u64;
                        threads.push(ThreadCtx {
                            stack: Vec::new(),
                            status: ThreadStatus::Runnable,
                            pending_entry: Some((*func, regs)),
                        });
                        if let Some(dst) = dst {
                            let frame = threads[cur].stack.last_mut().expect("frame");
                            frame.regs[usize::from(*dst)] = handle;
                        }
                        engine.op(OpClass::Agu, 1);
                    }
                    Inst::Join { src } => {
                        let frame = threads[cur].stack.last().expect("frame");
                        let handle = frame.regs[usize::from(*src)] as usize;
                        engine.op(OpClass::Agu, 1);
                        // Handle 0 (main), self, unknown, or finished: a
                        // no-op — shrunk programs with a dangling join
                        // stay valid.
                        if handle != 0
                            && handle != cur
                            && handle < threads.len()
                            && threads[handle].status != ThreadStatus::Done
                        {
                            threads[cur].status = ThreadStatus::Blocked(handle);
                        }
                    }
                }
            } else {
                let term = block.term.expect("verified program has terminators");
                match term {
                    Terminator::Jmp { target } => {
                        let frame = threads[cur].stack.last_mut().expect("frame");
                        frame.block = target;
                        frame.ip = 0;
                    }
                    Terminator::Br {
                        cond,
                        then_blk,
                        else_blk,
                    } => {
                        let frame = threads[cur].stack.last_mut().expect("frame");
                        let taken = frame.regs[usize::from(cond)] != 0;
                        let site = (u64::from(fid.0) << 24) | u64::from(bid.0);
                        engine.branch(site, taken);
                        frame.block = if taken { then_blk } else { else_blk };
                        frame.ip = 0;
                    }
                    Terminator::Ret { value } => {
                        let ctx = &mut threads[cur];
                        let frame = ctx.stack.last().expect("frame");
                        let ret_val = value.map(|r| frame.regs[usize::from(r)]);
                        let ret_dst = frame.ret_dst;
                        ctx.stack.pop();
                        engine.ret();
                        match ctx.stack.last_mut() {
                            Some(caller) => {
                                if let (Some(dst), Some(v)) = (ret_dst, ret_val) {
                                    caller.regs[usize::from(dst)] = v;
                                }
                            }
                            None => {
                                ctx.status = ThreadStatus::Done;
                                if cur == 0 {
                                    final_ret = ret_val;
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(final_ret)
    }
}

/// Pops every open frame of every thread (switching to each first) so a
/// trap leaves the trace balanced. Never-scheduled spawned threads have
/// no entry call to undo; their pending entry is simply dropped.
fn unwind_all<O: ExecutionObserver>(engine: &mut Engine<O>, threads: &mut [ThreadCtx]) {
    for (i, ctx) in threads.iter_mut().enumerate() {
        ctx.pending_entry = None;
        ctx.status = ThreadStatus::Done;
        if ctx.stack.is_empty() {
            continue;
        }
        engine.switch_thread(ThreadId::from_raw(
            u32::try_from(i).expect("thread count fits u32"),
        ));
        while ctx.stack.pop().is_some() {
            engine.ret();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use sigil_trace::observer::{CountingObserver, RecordingObserver};

    fn run_program(
        program: &Program,
    ) -> (
        Result<Option<u64>, Trap>,
        sigil_trace::observer::EventCounts,
    ) {
        let mut engine = Engine::new(CountingObserver::new());
        let result = Interpreter::new(program).run(&mut engine);
        let counts = engine.finish().into_counts();
        (result, counts)
    }

    #[test]
    fn arithmetic_and_return_value() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 2);
        f.imm(0, 6);
        f.imm(1, 7);
        f.mul(0, 0, 1);
        f.ret_reg(0);
        f.finish();
        let p = pb.build().expect("verifies");
        let (result, counts) = run_program(&p);
        assert_eq!(result, Ok(Some(42)));
        assert_eq!(counts.calls, 1);
        assert_eq!(counts.returns, 1);
    }

    #[test]
    fn loads_and_stores_hit_guest_memory() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 3);
        let buf = f.alloc_imm(0, 16);
        f.imm(1, 0x55);
        f.store(1, buf, 8, 8);
        f.load(2, buf, 8, 8);
        f.ret_reg(2);
        f.finish();
        let p = pb.build().expect("verifies");
        let (result, counts) = run_program(&p);
        assert_eq!(result, Ok(Some(0x55)));
        assert_eq!(counts.reads, 1);
        assert_eq!(counts.writes, 1);
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut pb = ProgramBuilder::new();
        let double = pb.declare("double");
        let mut main = pb.function("main", 2);
        main.imm(0, 10);
        main.call(double, &[0], Some(1));
        main.ret_reg(1);
        main.finish();
        let mut d = pb.define(double, 2);
        d.imm(1, 2);
        d.mul(0, 0, 1);
        d.ret_reg(0);
        d.finish();
        let p = pb.build().expect("verifies");
        let (result, counts) = run_program(&p);
        assert_eq!(result, Ok(Some(20)));
        assert_eq!(counts.calls, 2);
        assert_eq!(counts.returns, 2);
    }

    #[test]
    fn loop_iterates_expected_count() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 4);
        f.imm(2, 0);
        f.loop_range(0, 1, 0, 100, |f| {
            f.add(2, 2, 0);
        });
        f.ret_reg(2);
        f.finish();
        let p = pb.build().expect("verifies");
        let (result, counts) = run_program(&p);
        assert_eq!(result, Ok(Some((0..100u64).sum())));
        // 101 header branches: 100 taken + 1 exit.
        assert_eq!(counts.branches, 101);
    }

    #[test]
    fn float_arithmetic() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 3);
        f.fimm(0, 2.5);
        f.fimm(1, 4.0);
        f.falu(FaluOp::FMul, 2, 0, 1);
        f.ret_reg(2);
        f.finish();
        let p = pb.build().expect("verifies");
        let (result, _) = run_program(&p);
        assert_eq!(result.map(|v| v.map(f64::from_bits)), Ok(Some(10.0)));
    }

    #[test]
    fn divide_by_zero_traps_and_balances_trace() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 2);
        f.imm(0, 1);
        f.imm(1, 0);
        f.alu(AluOp::Div, 0, 0, 1);
        f.ret();
        f.finish();
        let p = pb.build().expect("verifies");
        let mut engine = Engine::new(CountingObserver::new());
        let result = Interpreter::new(&p).run(&mut engine);
        assert!(matches!(result, Err(Trap::DivideByZero { .. })));
        assert!(engine.validate().is_ok(), "trap unwound all frames");
        let counts = engine.finish().into_counts();
        assert_eq!(counts.calls, counts.returns);
    }

    #[test]
    fn fuel_exhaustion_traps() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 1);
        let spin = f.block();
        f.jmp(spin);
        f.switch_to(spin);
        f.jmp(spin);
        f.finish();
        let p = pb.build().expect("verifies");
        let mut engine = Engine::new(CountingObserver::new());
        let result = Interpreter::new(&p).with_fuel(1000).run(&mut engine);
        assert_eq!(result, Err(Trap::OutOfFuel { fuel: 1000 }));
        assert!(engine.validate().is_ok());
    }

    #[test]
    fn recursion_overflow_traps() {
        let mut pb = ProgramBuilder::new();
        let rec = pb.declare("rec");
        let mut r = pb.define(rec, 1);
        r.call(rec, &[], None);
        r.ret();
        r.finish();
        pb.set_entry(rec);
        let p = pb.build().expect("verifies");
        let mut engine = Engine::new(CountingObserver::new());
        let result = Interpreter::new(&p).with_max_depth(32).run(&mut engine);
        assert_eq!(result, Err(Trap::StackOverflow { max_depth: 32 }));
        assert!(engine.validate().is_ok());
    }

    #[test]
    fn event_order_matches_program_order() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 2);
        let buf = f.alloc_imm(0, 8);
        f.imm(1, 1);
        f.store(1, buf, 0, 8);
        f.load(1, buf, 0, 8);
        f.ret();
        f.finish();
        let p = pb.build().expect("verifies");
        let mut engine = Engine::new(RecordingObserver::new());
        Interpreter::new(&p).run(&mut engine).expect("no trap");
        let events = engine.finish().into_events();
        let mut write_pos = None;
        let mut read_pos = None;
        for (i, ev) in events.iter().enumerate() {
            match ev {
                sigil_trace::RuntimeEvent::Write { .. } => write_pos = Some(i),
                sigil_trace::RuntimeEvent::Read { .. } => read_pos = Some(i),
                _ => {}
            }
        }
        assert!(write_pos.expect("write seen") < read_pos.expect("read seen"));
    }

    #[test]
    fn trap_messages_are_descriptive() {
        assert!(Trap::DivideByZero { func: FuncId(2) }
            .to_string()
            .contains("f2"));
        assert!(Trap::OutOfFuel { fuel: 9 }.to_string().contains('9'));
        assert!(Trap::Deadlock.to_string().contains("join"));
    }

    /// main allocates a buffer, spawns a worker that fills it, joins,
    /// and reads the worker's value back through shared guest memory.
    fn spawn_join_program() -> Program {
        let mut pb = ProgramBuilder::new();
        let worker = pb.declare("worker");
        let mut main = pb.function("main", 3);
        let buf = main.alloc_imm(0, 8);
        main.spawn(worker, &[0], Some(1));
        main.join(1);
        main.load(2, buf, 0, 8);
        main.ret_reg(2);
        main.finish();
        let mut w = pb.define(worker, 2);
        w.imm(1, 0x2a);
        w.store(1, 0, 0, 8);
        w.ret();
        w.finish();
        pb.build().expect("verifies")
    }

    #[test]
    fn spawn_join_round_trips_through_shared_memory() {
        let p = spawn_join_program();
        let mut engine = Engine::new(CountingObserver::new());
        let result = Interpreter::new(&p).run(&mut engine);
        assert_eq!(result, Ok(Some(0x2a)), "join ordered the worker's store");
        assert!(engine.validate().is_ok());
        let counts = engine.finish().into_counts();
        assert_eq!(counts.calls, 2, "main + deferred worker entry");
        assert_eq!(counts.returns, 2);
    }

    #[test]
    fn same_schedule_seed_gives_identical_streams() {
        let p = spawn_join_program();
        let record = |seed: u64| {
            let mut engine = Engine::new(RecordingObserver::new());
            Interpreter::new(&p)
                .with_schedule_seed(seed)
                .run(&mut engine)
                .expect("no trap");
            engine.finish().into_events()
        };
        assert_eq!(record(7), record(7));
        assert_eq!(record(123), record(123));
    }

    #[test]
    fn single_threaded_streams_ignore_schedule_seed() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 3);
        let buf = f.alloc_imm(0, 16);
        f.imm(1, 9);
        f.store(1, buf, 0, 8);
        f.load(2, buf, 0, 8);
        f.ret_reg(2);
        f.finish();
        let p = pb.build().expect("verifies");
        let record = |seed: u64| {
            let mut engine = Engine::new(RecordingObserver::new());
            Interpreter::new(&p)
                .with_schedule_seed(seed)
                .run(&mut engine)
                .expect("no trap");
            engine.finish().into_events()
        };
        let baseline = record(0);
        assert!(!baseline
            .iter()
            .any(|e| matches!(e, sigil_trace::RuntimeEvent::ThreadSwitch { .. })));
        assert_eq!(baseline, record(0xdead_beef));
    }

    #[test]
    fn join_of_unknown_done_or_main_handle_is_noop() {
        let mut pb = ProgramBuilder::new();
        let mut f = pb.function("main", 1);
        f.imm(0, 99);
        f.join(0); // unknown handle
        f.imm(0, 0);
        f.join(0); // main/self handle
        f.imm(0, 7);
        f.ret_reg(0);
        f.finish();
        let p = pb.build().expect("verifies");
        let (result, _) = run_program(&p);
        assert_eq!(result, Ok(Some(7)));
    }

    #[test]
    fn mutual_join_cycle_deadlocks_and_unwinds() {
        // main spawns A (handle 1); A spawns B (handle 2) and joins it;
        // B joins A. B can never see A done (A waits on B), and vice
        // versa, so the cycle closes under every interleaving.
        let mut pb = ProgramBuilder::new();
        let wa = pb.declare("wa");
        let wb = pb.declare("wb");
        let mut main = pb.function("main", 1);
        main.spawn(wa, &[], None);
        main.ret();
        main.finish();
        let mut a = pb.define(wa, 1);
        a.spawn(wb, &[], Some(0));
        a.join(0);
        a.ret();
        a.finish();
        let mut b = pb.define(wb, 1);
        b.imm(0, 1);
        b.join(0);
        b.ret();
        b.finish();
        let p = pb.build().expect("verifies");
        let mut engine = Engine::new(CountingObserver::new());
        let result = Interpreter::new(&p).run(&mut engine);
        assert_eq!(result, Err(Trap::Deadlock));
        assert!(engine.validate().is_ok(), "deadlock unwound all threads");
        let counts = engine.finish().into_counts();
        assert_eq!(counts.calls, counts.returns);
    }

    #[test]
    fn trap_on_one_thread_unwinds_every_thread() {
        // A worker spins forever; main joins it; fuel runs out with open
        // frames on both threads.
        let mut pb = ProgramBuilder::new();
        let spin = pb.declare("spin");
        let mut main = pb.function("main", 1);
        main.spawn(spin, &[], Some(0));
        main.join(0);
        main.ret();
        main.finish();
        let mut s = pb.define(spin, 1);
        let lp = s.block();
        s.jmp(lp);
        s.switch_to(lp);
        s.jmp(lp);
        s.finish();
        let p = pb.build().expect("verifies");
        let mut engine = Engine::new(CountingObserver::new());
        let result = Interpreter::new(&p).with_fuel(5000).run(&mut engine);
        assert_eq!(result, Err(Trap::OutOfFuel { fuel: 5000 }));
        assert!(engine.validate().is_ok());
        let counts = engine.finish().into_counts();
        assert_eq!(counts.calls, counts.returns);
    }

    #[test]
    fn never_scheduled_spawn_still_balances_on_trap() {
        // main spawns a worker and immediately divides by zero: the
        // worker's entry call was never emitted, so there is nothing to
        // unwind on its thread.
        let mut pb = ProgramBuilder::new();
        let w = pb.declare("w");
        let mut main = pb.function("main", 2);
        main.spawn(w, &[], None);
        main.imm(0, 1);
        main.imm(1, 0);
        main.alu(AluOp::Div, 0, 0, 1);
        main.ret();
        main.finish();
        let mut wf = pb.define(w, 1);
        wf.ret();
        wf.finish();
        let p = pb.build().expect("verifies");
        let mut engine = Engine::new(CountingObserver::new());
        let result = Interpreter::new(&p).run(&mut engine);
        assert!(matches!(result, Err(Trap::DivideByZero { .. })));
        assert!(engine.validate().is_ok());
        let counts = engine.finish().into_counts();
        assert_eq!(counts.calls, counts.returns);
    }
}
