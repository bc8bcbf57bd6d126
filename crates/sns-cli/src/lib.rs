//! The `sns` command-line interface: run, inspect, directly manipulate,
//! and export `little` programs from a shell.
//!
//! Command surface (see `sns help`):
//!
//! ```text
//! sns run FILE                  evaluate and print the SVG canvas
//! sns code FILE                 parse and pretty-print the program
//! sns shapes FILE               list shapes, zones, and hover captions
//! sns hover FILE --shape N --zone Z
//! sns drag FILE --shape N --zone Z --dx F --dy F [--write]
//! sns sliders FILE              list range-annotated sliders
//! sns slider FILE --name NAME --value V [--write]
//! sns reconcile FILE --shape N --attr A --value V [--write]
//! sns export FILE               final SVG (helper shapes hidden)
//! sns examples [SLUG]           list the corpus / print one example
//! ```
//!
//! `FILE` may be a path or `example:SLUG` to load a corpus program.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;

use std::fmt::Write as _;

use sns_editor::Editor;
use sns_svg::{AttrRef, ShapeId, Zone};
use sns_sync::OutputEdit;

use args::Args;

/// Executes a CLI invocation and returns its stdout text.
///
/// # Errors
///
/// Returns a human-readable error message for unknown commands, missing
/// arguments, unreadable files, or program errors.
pub fn run(args: Args) -> Result<String, String> {
    match args.command.as_str() {
        "" | "help" | "--help" | "-h" => Ok(HELP.to_string()),
        "run" => cmd_run(&args),
        "code" => cmd_code(&args),
        "shapes" => cmd_shapes(&args),
        "hover" => cmd_hover(&args),
        "drag" => cmd_drag(&args),
        "sliders" => cmd_sliders(&args),
        "slider" => cmd_slider(&args),
        "reconcile" => cmd_reconcile(&args),
        "export" => cmd_export(&args),
        "stats" => cmd_stats(&args),
        "examples" => cmd_examples(&args),
        "serve" => cmd_serve(&args),
        other => Err(format!("unknown command `{other}`; try `sns help`")),
    }
}

const HELP: &str = "sns — Sketch-n-Sketch prodirect manipulation, headless\n\
\n\
USAGE: sns <command> [FILE] [options]\n\
\n\
COMMANDS:\n\
  run FILE                              evaluate and print the SVG canvas\n\
  code FILE                             parse and pretty-print the program\n\
  shapes FILE                           list shapes, zones, hover captions\n\
  hover FILE --shape N --zone Z         caption for one zone\n\
  drag FILE --shape N --zone Z --dx F --dy F [--write]\n\
                                        live-synchronize a mouse drag\n\
  sliders FILE                          list range-annotated sliders\n\
  slider FILE --name NAME --value V [--write]\n\
                                        move a slider\n\
  reconcile FILE --shape N --attr A --value V [--write]\n\
                                        ad-hoc edit: rank candidate updates\n\
  export FILE                           final SVG (helpers hidden)\n\
  stats FILE                            zone/ambiguity statistics\n\
  examples [SLUG]                       list corpus / print one example\n\
  serve [--addr A] [--threads N] [--reactors N] [--max-conns N] [--max-sessions N]\n\
        [--max-sessions-per-ip N] [--max-durable-per-ip N] [--queue-depth N]\n\
        [--read-timeout-ms N] [--idle-timeout-ms N]\n\
        [--data-dir DIR] [--fsync batch|never] [--auth-token T]\n\
        [--repl-listen A] [--replicate-to N] [--follow A]\n\
        [--no-trace] [--slow-ms N] [--stall-ms N] [--log-level L] [--log-format json|text]\n\
        [--fault-plan SPEC]\n\
                                        run the live-sync HTTP service\n\
                                        (--threads = CPU workers; --reactors =\n\
                                        epoll event loops, one per core by\n\
                                        default, sharing the port via\n\
                                        SO_REUSEPORT; connections\n\
                                        are gated by --max-conns; SIGTERM drains;\n\
                                        --data-dir journals sessions durably;\n\
                                        --auth-token, or SNS_AUTH_TOKEN, gates\n\
                                        every route except GET /healthz;\n\
                                        --repl-listen streams the journal to\n\
                                        followers, --replicate-to N acks writes\n\
                                        only after N follower acks; --follow\n\
                                        runs a read-only follower that promotes\n\
                                        to leader on POST /promote or SIGUSR1;\n\
                                        per-request tracing is on by default —\n\
                                        --no-trace disables it, --slow-ms sets\n\
                                        the slow-request log threshold (50),\n\
                                        --stall-ms the stall-watchdog threshold\n\
                                        snapshotting wedged in-flight requests\n\
                                        (1000; 0 disables);\n\
                                        --log-level error|warn|info|debug and\n\
                                        --log-format text|json shape stderr\n\
                                        logs; scrape GET /metrics, inspect\n\
                                        GET /debug/traces; --fault-plan, or\n\
                                        SNS_FAULT_PLAN, arms deterministic\n\
                                        fault injection — debug builds only,\n\
                                        see docs/robustness.md)\n\
\n\
FILE may be a path or example:SLUG (e.g. example:wave_boxes).\n\
Zones: interior, rightedge, botrightcorner, botedge, botleftcorner,\n\
leftedge, topleftcorner, topedge, toprightcorner, point<i>, edge<i>, edge.\n";

/// Loads program source from a path or `example:SLUG`.
fn load_source(spec: &str) -> Result<String, String> {
    if let Some(slug) = spec.strip_prefix("example:") {
        return sns_examples::by_slug(slug)
            .map(|e| e.source.to_string())
            .ok_or_else(|| format!("no corpus example named `{slug}`"));
    }
    std::fs::read_to_string(spec).map_err(|e| format!("cannot read `{spec}`: {e}"))
}

fn open_editor(args: &Args) -> Result<(Editor, String), String> {
    let spec = args.positional(0, "program file")?;
    let source = load_source(spec)?;
    let editor = Editor::new(&source).map_err(|e| e.to_string())?;
    Ok((editor, spec.to_string()))
}

fn parse_shape(args: &Args) -> Result<ShapeId, String> {
    Ok(ShapeId(
        args.option("shape")?
            .parse::<usize>()
            .map_err(|e| format!("--shape: {e}"))?,
    ))
}

fn parse_zone(args: &Args) -> Result<Zone, String> {
    args.option("zone")?
        .parse::<Zone>()
        .map_err(|e| e.to_string())
}

/// Writes the program back to `spec` when `--write` was passed (refusing
/// for `example:` sources), otherwise prints it.
fn finish_write(args: &Args, spec: &str, editor: &Editor, out: &mut String) -> Result<(), String> {
    if args.has_flag("write") {
        if spec.starts_with("example:") {
            return Err("cannot --write back to a corpus example".to_string());
        }
        std::fs::write(spec, editor.code() + "\n")
            .map_err(|e| format!("cannot write `{spec}`: {e}"))?;
        let _ = writeln!(out, "wrote {spec}");
    } else {
        let _ = writeln!(out, "{}", editor.code());
    }
    Ok(())
}

fn cmd_run(args: &Args) -> Result<String, String> {
    let (editor, _) = open_editor(args)?;
    Ok(editor.canvas_svg())
}

fn cmd_code(args: &Args) -> Result<String, String> {
    let (editor, _) = open_editor(args)?;
    Ok(editor.code() + "\n")
}

fn cmd_shapes(args: &Args) -> Result<String, String> {
    let (editor, _) = open_editor(args)?;
    let mut out = String::new();
    for shape in editor.shapes() {
        let zones = shape.zones();
        let active = zones
            .iter()
            .filter(|z| {
                editor
                    .zone_analysis(shape.id, z.zone)
                    .is_some_and(|a| a.is_active())
            })
            .count();
        let _ = writeln!(
            out,
            "{}  {:<9} {} zones ({} active){}",
            shape.id,
            shape.node.kind,
            zones.len(),
            active,
            if shape.hidden() { "  [hidden]" } else { "" }
        );
        for spec in &zones {
            if let Some(analysis) = editor.zone_analysis(shape.id, spec.zone) {
                let caption = sns_editor::caption_for(editor.program(), analysis);
                let _ = writeln!(out, "    {:<16} {}", spec.zone.to_string(), caption.text);
            }
        }
    }
    Ok(out)
}

fn cmd_hover(args: &Args) -> Result<String, String> {
    let (editor, _) = open_editor(args)?;
    let caption = editor
        .hover(parse_shape(args)?, parse_zone(args)?)
        .map_err(|e| e.to_string())?;
    Ok(caption.text + "\n")
}

fn cmd_drag(args: &Args) -> Result<String, String> {
    let (mut editor, spec) = open_editor(args)?;
    let shape = parse_shape(args)?;
    let zone = parse_zone(args)?;
    let (dx, dy) = (args.option_f64("dx")?, args.option_f64("dy")?);
    let feedback = editor
        .drag_zone(shape, zone, dx, dy)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "inferred update: {}", feedback.subst);
    finish_write(args, &spec, &editor, &mut out)?;
    Ok(out)
}

fn cmd_sliders(args: &Args) -> Result<String, String> {
    let (editor, _) = open_editor(args)?;
    let sliders = editor.sliders();
    if sliders.is_empty() {
        return Ok("no range-annotated constants\n".to_string());
    }
    let mut out = String::new();
    for s in sliders {
        let _ = writeln!(out, "{:<16} {} in [{}, {}]", s.name, s.value, s.min, s.max);
    }
    Ok(out)
}

fn cmd_slider(args: &Args) -> Result<String, String> {
    let (mut editor, spec) = open_editor(args)?;
    let name = args.option("name")?;
    let value = args.option_f64("value")?;
    let slider = editor
        .sliders()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| format!("no slider named `{name}`"))?;
    editor
        .set_slider(slider.loc, value)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    finish_write(args, &spec, &editor, &mut out)?;
    Ok(out)
}

fn cmd_reconcile(args: &Args) -> Result<String, String> {
    let (mut editor, spec) = open_editor(args)?;
    let shape = parse_shape(args)?;
    let attr = args.option("attr")?.to_string();
    let value = args.option_f64("value")?;
    // Plain attributes only from the CLI; point/path edits use `drag`.
    let attr_ref = AttrRef::Plain(match attr.as_str() {
        "x" => "x",
        "y" => "y",
        "width" => "width",
        "height" => "height",
        "cx" => "cx",
        "cy" => "cy",
        "r" => "r",
        "rx" => "rx",
        "ry" => "ry",
        "x1" => "x1",
        "y1" => "y1",
        "x2" => "x2",
        "y2" => "y2",
        other => return Err(format!("unsupported attribute `{other}`")),
    });
    let edits = [OutputEdit {
        shape,
        attr: attr_ref,
        new_value: value,
    }];
    let mut ranked = editor.reconcile_edits(&edits);
    if ranked.is_empty() {
        return Err("no candidate update reconciles that edit".to_string());
    }
    let mut out = String::new();
    let _ = writeln!(out, "{} candidate update(s):", ranked.len());
    for (i, r) in ranked.iter().enumerate() {
        let _ = writeln!(out, "  {}. {}  {:?}", i + 1, r.update.subst, r.judgment);
    }
    // Apply the best candidate without rerunning the synthesis.
    let best = ranked.swap_remove(0);
    editor
        .apply_reconciliation(best)
        .map_err(|e| e.to_string())?;
    finish_write(args, &spec, &editor, &mut out)?;
    Ok(out)
}

fn cmd_export(args: &Args) -> Result<String, String> {
    let (editor, _) = open_editor(args)?;
    Ok(editor.export_svg())
}

fn cmd_stats(args: &Args) -> Result<String, String> {
    let (editor, _) = open_editor(args)?;
    let s = editor.assignments().zone_stats();
    let mut out = String::new();
    let _ = writeln!(out, "shapes        {}", editor.shapes().len());
    let _ = writeln!(out, "zones         {}", s.total);
    let _ = writeln!(out, "  inactive    {}", s.inactive);
    let _ = writeln!(out, "  unambiguous {}", s.unambiguous);
    let _ = writeln!(
        out,
        "  ambiguous   {} ({:.2} candidates on average)",
        s.ambiguous,
        s.avg_ambiguous_choices()
    );
    let _ = writeln!(out, "sliders       {}", editor.sliders().len());
    Ok(out)
}

fn cmd_serve(args: &Args) -> Result<String, String> {
    let mut config = sns_server::ServerConfig::default();
    if let Some(addr) = args.options.get("addr") {
        config.addr = addr.clone();
    }
    let parse_usize = |key: &str, slot: &mut usize| -> Result<(), String> {
        if let Some(v) = args.options.get(key) {
            *slot = v.parse().map_err(|e| format!("--{key}: {e}"))?;
        }
        Ok(())
    };
    parse_usize("threads", &mut config.threads)?;
    parse_usize("reactors", &mut config.reactors)?;
    parse_usize("max-sessions", &mut config.max_sessions)?;
    parse_usize("max-conns", &mut config.max_conns)?;
    parse_usize("queue-depth", &mut config.queue_depth)?;
    parse_usize("max-sessions-per-ip", &mut config.max_sessions_per_ip)?;
    parse_usize("max-durable-per-ip", &mut config.max_durable_per_ip)?;
    parse_usize("replicate-to", &mut config.replicate_to)?;
    if let Some(v) = args.options.get("read-timeout-ms") {
        let ms: u64 = v.parse().map_err(|e| format!("--read-timeout-ms: {e}"))?;
        config.read_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(v) = args.options.get("idle-timeout-ms") {
        let ms: u64 = v.parse().map_err(|e| format!("--idle-timeout-ms: {e}"))?;
        config.idle_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(dir) = args.options.get("data-dir") {
        config.data_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(policy) = args.options.get("fsync") {
        if config.data_dir.is_none() {
            return Err("--fsync requires --data-dir".to_string());
        }
        config.fsync = policy.parse().map_err(|e| format!("--fsync: {e}"))?;
    }
    if let Some(addr) = args.options.get("repl-listen") {
        config.repl_listen = Some(addr.clone());
    }
    if let Some(addr) = args.options.get("follow") {
        config.follow = Some(addr.clone());
    }
    config.trace = !args.has_flag("no-trace");
    if let Some(v) = args.options.get("slow-ms") {
        config.slow_ms = v.parse().map_err(|e| format!("--slow-ms: {e}"))?;
    }
    if let Some(v) = args.options.get("stall-ms") {
        config.stall_ms = v.parse().map_err(|e| format!("--stall-ms: {e}"))?;
    }
    let log_level = match args.options.get("log-level") {
        Some(v) => v.parse().map_err(|e| format!("--log-level: {e}"))?,
        None => sns_obs::log::Level::Info,
    };
    let log_format = match args.options.get("log-format") {
        Some(v) => v.parse().map_err(|e| format!("--log-format: {e}"))?,
        None => sns_obs::log::Format::Text,
    };
    sns_obs::log::init(log_level, log_format);
    // Flag beats environment; the env var keeps the secret off `ps`.
    config.auth_token = args
        .options
        .get("auth-token")
        .cloned()
        .or_else(|| std::env::var("SNS_AUTH_TOKEN").ok())
        .filter(|t| !t.is_empty());
    // Fault injection (debug builds only; `Server::bind` refuses the
    // plan in release). Flag beats environment, same as the token.
    config.fault_spec = args
        .options
        .get("fault-plan")
        .cloned()
        .or_else(|| std::env::var("SNS_FAULT_PLAN").ok())
        .filter(|s| !s.is_empty());
    let server = sns_server::Server::bind(&config).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    // SIGTERM drains: stop accepting, finish in-flight requests, exit 0.
    sns_server::install_sigterm_drain();
    if config.follow.is_some() {
        // SIGUSR1 promotes a follower to leader (the signal-driven twin
        // of POST /promote).
        sns_server::install_sigusr1_promote();
    }
    eprintln!(
        "sns-server listening on http://{addr} ({} reactors, {} CPU workers, {} max connections, {} session capacity{}{}{})",
        server.reactor_count(),
        config.resolved_threads(),
        config.max_conns,
        config.max_sessions,
        match &config.data_dir {
            Some(dir) => format!(", journaling to {}", dir.display()),
            None => String::new(),
        },
        if config.auth_token.is_some() {
            ", bearer auth on"
        } else {
            ""
        },
        match &config.follow {
            Some(leader) => format!(", following {leader} (read-only until promoted)"),
            None => String::new(),
        },
    );
    if let Some(repl) = server.repl_addr() {
        // Parsed by harnesses the way the "listening on" line is.
        eprintln!(
            "sns-server replicating on {repl} (sync factor {})",
            config.replicate_to
        );
    }
    server.run().map_err(|e| e.to_string())?;
    eprintln!("sns-server drained; exiting");
    Ok(String::new())
}

fn cmd_examples(args: &Args) -> Result<String, String> {
    if let Some(slug) = args.positional.first() {
        let ex = sns_examples::by_slug(slug)
            .ok_or_else(|| format!("no corpus example named `{slug}`"))?;
        return Ok(format!("; {} ({})\n{}", ex.name, ex.slug, ex.source));
    }
    let mut out = String::new();
    for ex in sns_examples::ALL {
        let _ = writeln!(out, "{:<24} {}", ex.slug, ex.name);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sns(raw: &[&str]) -> Result<String, String> {
        run(args::parse(raw.iter().map(|s| s.to_string())))
    }

    #[test]
    fn help_lists_commands() {
        let out = sns(&["help"]).unwrap();
        assert!(out.contains("drag FILE"));
        assert!(sns(&[]).unwrap().contains("USAGE"));
    }

    #[test]
    fn run_renders_an_example() {
        let out = sns(&["run", "example:wave_boxes"]).unwrap();
        assert!(out.starts_with("<svg"));
        assert_eq!(out.matches("<rect").count(), 12);
    }

    #[test]
    fn code_pretty_prints() {
        let out = sns(&["code", "example:three_boxes"]).unwrap();
        assert!(out.contains("(def [x0 y0 w h sep]"));
    }

    #[test]
    fn shapes_lists_zones_and_captions() {
        let out = sns(&["shapes", "example:three_boxes"]).unwrap();
        assert!(out.contains("shape#0"));
        assert!(out.contains("Interior"));
        assert!(out.contains("Active: changes"));
    }

    #[test]
    fn hover_prints_caption() {
        let out = sns(&[
            "hover",
            "example:three_boxes",
            "--shape",
            "0",
            "--zone",
            "interior",
        ])
        .unwrap();
        assert!(out.starts_with("Active: changes"));
    }

    #[test]
    fn drag_on_a_file_roundtrips() {
        let dir = std::env::temp_dir().join("sns-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("box.little");
        std::fs::write(&file, "(svg [(rect 'red' 10 20 30 40)])").unwrap();
        let path = file.to_str().unwrap();
        let out = sns(&[
            "drag", path, "--shape", "0", "--zone", "interior", "--dx", "5", "--dy", "7", "--write",
        ])
        .unwrap();
        assert!(out.contains("inferred update"));
        let updated = std::fs::read_to_string(&file).unwrap();
        assert!(updated.contains("15 27"), "{updated}");
    }

    #[test]
    fn sliders_and_slider_commands() {
        let out = sns(&["sliders", "example:wave_boxes"]).unwrap();
        assert!(out.contains("n"));
        let out = sns(&[
            "slider",
            "example:wave_boxes",
            "--name",
            "n",
            "--value",
            "5",
        ])
        .unwrap();
        assert!(out.contains("(def n 5!{3-30})"), "{out}");
    }

    #[test]
    fn reconcile_ranks_candidates() {
        let dir = std::env::temp_dir().join("sns-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("two.little");
        std::fs::write(
            &file,
            "(def [x0 sep] [50 100]) (svg [(rect 'red' x0 10 30 30) (rect 'blue' (+ x0 sep) 10 30 30)])",
        )
        .unwrap();
        let out = sns(&[
            "reconcile",
            file.to_str().unwrap(),
            "--shape",
            "1",
            "--attr",
            "x",
            "--value",
            "250",
        ])
        .unwrap();
        assert!(out.contains("2 candidate update(s)"), "{out}");
        assert!(out.contains("sep ↦ 200") || out.contains("200"), "{out}");
    }

    #[test]
    fn stats_summarizes_zones() {
        let out = sns(&["stats", "example:wave_boxes"]).unwrap();
        assert!(out.contains("shapes        12"), "{out}");
        assert!(out.contains("zones         108"), "{out}");
        assert!(out.contains("sliders       1"), "{out}");
    }

    #[test]
    fn export_hides_helpers() {
        let out = sns(&["export", "example:sliders"]).unwrap();
        assert!(!out.contains("<text"));
    }

    #[test]
    fn examples_lists_and_prints() {
        let list = sns(&["examples"]).unwrap();
        assert!(list.contains("wave_boxes"));
        let one = sns(&["examples", "ferris_wheel"]).unwrap();
        assert!(one.contains("nPointsOnCircle"));
    }

    #[test]
    fn errors_are_helpful() {
        assert!(sns(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        assert!(sns(&["run", "example:nope"])
            .unwrap_err()
            .contains("no corpus example"));
        assert!(sns(&["run", "/no/such/file.little"])
            .unwrap_err()
            .contains("cannot read"));
        assert!(sns(&[
            "drag",
            "example:wave_boxes",
            "--shape",
            "0",
            "--zone",
            "weird"
        ])
        .unwrap_err()
        .contains("unknown zone"));
        assert!(sns(&[
            "slider",
            "example:wave_boxes",
            "--name",
            "zz",
            "--value",
            "1"
        ])
        .unwrap_err()
        .contains("no slider"));
    }
}
