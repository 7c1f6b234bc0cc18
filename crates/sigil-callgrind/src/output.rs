//! Calltree text rendering, in the spirit of `callgrind_annotate`.

use std::fmt::Write as _;

use crate::profiler::CallgrindProfile;

/// Renders the calltree with per-context costs, indented by depth.
pub fn context_tree(profile: &CallgrindProfile) -> String {
    let mut out = String::new();
    render_subtree(profile, crate::calltree::ContextId::ROOT, 0, &mut out);
    out
}

fn render_subtree(
    profile: &CallgrindProfile,
    ctx: crate::calltree::ContextId,
    depth: usize,
    out: &mut String,
) {
    let node = profile.tree.node(ctx);
    if let Some(func) = node.func {
        let name = profile
            .symbols
            .get_name(func)
            .map_or_else(|| func.to_string(), str::to_owned);
        let _ = writeln!(
            out,
            "{:indent$}{name}  calls={} ir={} cycles={}",
            "",
            node.calls,
            node.costs.ir,
            profile.context_cycles(ctx),
            indent = depth * 2,
        );
    }
    for &child in &node.children {
        render_subtree(profile, child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use crate::profiler::{CallgrindConfig, CallgrindProfiler};
    use sigil_trace::{Engine, OpClass};

    use super::*;

    fn sample_profile() -> CallgrindProfile {
        let mut engine = Engine::new(CallgrindProfiler::new(CallgrindConfig::default()));
        let main = engine.symbols_mut().intern("main");
        let inner = engine.symbols_mut().intern("inner");
        engine.call(main);
        engine.scoped(inner, |e| e.op(OpClass::IntArith, 42));
        engine.ret();
        let (p, s) = engine.finish_with_symbols();
        p.into_profile(s)
    }

    #[test]
    fn context_tree_indents_children() {
        let text = context_tree(&sample_profile());
        let main_line = text.lines().find(|l| l.contains("main")).expect("main");
        let inner_line = text.lines().find(|l| l.contains("inner")).expect("inner");
        let indent = |l: &str| l.len() - l.trim_start().len();
        assert!(indent(inner_line) > indent(main_line));
    }
}
