//! The streamed canvas reply is byte-identical to the tree it replaced.
//!
//! `Session::canvas_body` writes the canvas object in one pass. The
//! builder it replaced assembled a `Json` tree zone by zone; it is kept
//! here, verbatim in behaviour, as the oracle. For every corpus example
//! the streamed body, the walkable `canvas_json()` and the `set_code`
//! reply must equal the oracle's `to_string()` (and its tree) after
//! create, after a drag and commit, and after each class of code edit.

use sns_server::json::{self, Json};
use sns_server::session::Session;
use sns_svg::{ShapeId, Zone};

/// The tree builder the streamed writer replaced.
fn oracle_canvas(session: &Session) -> Json {
    let editor = session.editor();
    let shapes: Vec<Json> = editor
        .shapes()
        .map(|shape| {
            let zones: Vec<Json> = shape
                .zones()
                .iter()
                .map(|spec| {
                    let (active, caption) = match editor.zone_analysis(shape.id, spec.zone) {
                        Some(a) => {
                            let c = sns_editor::caption_for(editor.program(), a);
                            (a.is_active(), c.text)
                        }
                        None => (false, "Inactive".to_string()),
                    };
                    Json::obj([
                        ("zone", Json::str(spec.zone.to_string())),
                        ("active", Json::Bool(active)),
                        ("caption", Json::str(caption)),
                    ])
                })
                .collect();
            Json::obj([
                ("id", Json::Num(shape.id.0 as f64)),
                ("kind", Json::str(&*shape.node.kind)),
                ("hidden", Json::Bool(shape.hidden())),
                ("zones", Json::Arr(zones)),
            ])
        })
        .collect();
    Json::obj([
        ("svg", Json::str(editor.canvas_svg())),
        ("shapes", Json::Arr(shapes)),
    ])
}

/// Checks the streamed body and the parsed tree against the oracle.
fn check(session: &Session, what: &str) {
    let want = oracle_canvas(session);
    let body = session.canvas_body();
    assert_eq!(body, want.to_string(), "{what}: streamed body");
    assert_eq!(session.canvas_json(), want, "{what}: canvas_json tree");
}

/// The first active zone of the canvas, if any.
fn first_active(session: &Session) -> Option<(ShapeId, Zone)> {
    session
        .editor()
        .live()
        .assignments()
        .zones
        .iter()
        .find_map(|a| a.is_active().then_some((a.shape, a.zone)))
}

/// The unused definition each program starts with, which the code edits
/// rewrite: `*` ↔ `+` changes one subtree, the list wrapper adds a
/// literal (a reshape), and `1313` is the edited literal.
fn anchored(op: &str, k: u32, wrapped: bool, body: &str) -> String {
    let core = format!("({op} 7 {k})");
    let core = if wrapped { format!("[{core} 0]") } else { core };
    format!("(def benchK {core})\n{body}")
}

fn check_set_code(session: &mut Session, source: &str, what: &str) {
    let reply = session
        .set_code(source)
        .unwrap_or_else(|e| panic!("{what}: {}", e.msg));
    let want = Json::obj([
        ("code", Json::str(session.code())),
        ("canvas", oracle_canvas(session)),
    ]);
    assert_eq!(
        reply.to_string(),
        want.to_string(),
        "{what}: set_code reply"
    );
    check(session, what);
}

#[test]
fn streamed_canvas_matches_the_tree_builder_on_the_whole_corpus() {
    let mut hidden = 0;
    for ex in sns_examples::ALL {
        let slug = ex.slug;
        let src = anchored("*", 1313, false, ex.source);
        let mut session = Session::create(format!("s-{slug}"), &src)
            .unwrap_or_else(|e| panic!("{slug}: {}", e.msg));
        check(&session, &format!("{slug} after create"));
        hidden += session.editor().shapes().filter(|s| s.hidden()).count();

        if let Some((shape, zone)) = first_active(&session) {
            session.drag(shape, zone, 7.0, 3.0).unwrap();
            session.commit().unwrap();
            check(&session, &format!("{slug} after a drag and commit"));
        }

        let code = session.code();
        check_set_code(&mut session, &code, &format!("{slug} identical edit"));
        let literal = code.replacen("1313", "1314", 1);
        check_set_code(&mut session, &literal, &format!("{slug} literal edit"));
        let subtree = literal.replacen("(* 7 1314)", "(+ 7 1314)", 1);
        check_set_code(&mut session, &subtree, &format!("{slug} subtree edit"));
        let structural = subtree.replacen("(+ 7 1314)", "[(+ 7 1314) 0]", 1);
        check_set_code(
            &mut session,
            &structural,
            &format!("{slug} structural edit"),
        );
    }
    assert!(hidden > 0, "the corpus exercises hidden shapes");
}

#[test]
fn escapes_in_strings_and_text_survive_the_stream() {
    // A backslash, XML specials, a newline, a tab, non-ASCII text and a
    // ghost (hidden) shape.
    let src = "(svg [(text 10 20 'say \"hi\" \\\\ <b> & it\\'s\\nnew\ttab λ') \
               (ghost (rect 'red' 1 2 3 4))])";
    let session = Session::create("s".into(), src).unwrap_or_else(|e| panic!("{}", e.msg));
    let body = session.canvas_body();
    for escaped in [
        "&quot;hi&quot;",
        "\\\\",
        "&lt;b&gt;",
        "&amp;",
        "&apos;",
        "\\n",
        "\\t",
    ] {
        assert!(body.contains(escaped), "{escaped} in {body}");
    }
    // Non-ASCII text survives the lexer, the unparser and the SVG.
    assert!(body.contains("tab λ"), "tab λ in {body}");
    let program = sns_eval::Program::parse(src).unwrap();
    let unparsed = sns_lang::unparse(program.user_expr());
    assert!(unparsed.contains("tab λ'"), "{unparsed}");
    let reparsed = sns_eval::Program::parse(&unparsed).unwrap();
    assert_eq!(sns_lang::unparse(reparsed.user_expr()), unparsed);
    assert!(session.editor().shapes().any(|s| s.hidden()));
    check(&session, "escapes");
}

#[test]
fn canvas_json_parses_back_to_the_body() {
    let ex = sns_examples::by_slug("three_boxes").unwrap();
    let session = Session::create("s".into(), ex.source).unwrap();
    let body = session.canvas_body();
    assert_eq!(json::parse(&body).unwrap().to_string(), body);
}
