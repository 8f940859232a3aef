//! Tests of string-symbol support: interning at parse time, evaluation
//! over ordinals, and rendering through declared column types.

use datalog::ast::{ColType, SYMBOL_BASE};
use datalog::{parse, Engine, StorageKind};

const ORG: &str = r#"
    .decl manages(boss: symbol, report: symbol)
    .decl above(boss: symbol, report: symbol)
    .output above
    manages("alice", "bob").
    manages("bob", "carol").
    above(b, r) :- manages(b, r).
    above(b, r) :- above(b, m), manages(m, r).
"#;

#[test]
fn string_literals_intern_at_parse_time() {
    let p = parse(ORG).unwrap();
    assert_eq!(p.symbols.len(), 3);
    let alice = p.symbols.lookup("alice").unwrap();
    assert!(alice >= SYMBOL_BASE);
    assert_eq!(p.symbols.resolve(alice), Some("alice"));
    assert_eq!(p.symbols.resolve(7), None, "plain numbers never resolve");
    // Repeated literals share one ordinal.
    assert_eq!(p.facts[0].1[0], alice);
}

#[test]
fn string_literals_decode_as_utf8() {
    let mut p = parse(".decl p(s: symbol)\n.output p\np(\"café\"). p(\"日本\").").unwrap();
    let cafe = p.facts[0].1[0];
    assert_eq!(p.symbols.resolve(cafe), Some("café"));
    assert_eq!(
        p.intern("café"),
        cafe,
        "the literal and the API share an ordinal"
    );
    let mut engine = Engine::new(&p, StorageKind::SpecBTree, 1).unwrap();
    engine.run().unwrap();
    let mut rows = engine.relation_display("p").unwrap();
    rows.sort();
    assert_eq!(
        rows,
        vec![vec!["café".to_string()], vec!["日本".to_string()]]
    );
    // A stray character is named whole, not by its first byte.
    let err = parse(".decl p(s: symbol)\np(1) é").unwrap_err();
    assert!(err.message.contains("'é'"), "{err}");
}

#[test]
fn column_types_recorded() {
    let p = parse(".decl mixed(name: symbol, age: number, x: whatever)").unwrap();
    assert_eq!(
        p.decl("mixed").unwrap().col_types,
        vec![ColType::Symbol, ColType::Number, ColType::Number]
    );
}

#[test]
fn evaluation_and_display_roundtrip() {
    let p = parse(ORG).unwrap();
    let mut engine = Engine::new(&p, StorageKind::SpecBTree, 2).unwrap();
    engine.run().unwrap();
    let rows = engine.relation_display("above").unwrap();
    assert_eq!(rows.len(), 3);
    assert!(rows.contains(&vec!["alice".to_string(), "carol".to_string()]));
    // Raw view still exposes ordinals.
    let raw = engine.relation("above").unwrap();
    assert!(raw.iter().all(|t| t.iter().all(|&v| v >= SYMBOL_BASE)));
}

#[test]
fn symbols_in_comparisons() {
    let p = parse(
        r#"
        .decl likes(a: symbol, b: symbol)
        .decl nonself(a: symbol, b: symbol)
        .output nonself
        likes("x", "x"). likes("x", "y").
        nonself(a, b) :- likes(a, b), a != b.
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&p, StorageKind::SpecBTree, 1).unwrap();
    engine.run().unwrap();
    let rows = engine.relation_display("nonself").unwrap();
    assert_eq!(rows, vec![vec!["x".to_string(), "y".to_string()]]);
}

#[test]
fn symbol_equality_against_literal() {
    let p = parse(
        r#"
        .decl likes(a: symbol, b: symbol)
        .decl of_x(b: symbol)
        .output of_x
        likes("x", "y"). likes("z", "w").
        of_x(b) :- likes(a, b), a = "x".
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&p, StorageKind::SpecBTree, 1).unwrap();
    engine.run().unwrap();
    assert_eq!(
        engine.relation_display("of_x").unwrap(),
        vec![vec!["y".to_string()]]
    );
}

#[test]
fn string_escapes() {
    let p = parse(".decl s(x: symbol)\ns(\"line\\nbreak\"). s(\"quote\\\"d\"). s(\"tab\\there\").")
        .unwrap();
    assert_eq!(p.symbols.len(), 3);
    assert!(p.symbols.lookup("line\nbreak").is_some());
    assert!(p.symbols.lookup("quote\"d").is_some());
    assert!(p.symbols.lookup("tab\there").is_some());
}

#[test]
fn unterminated_string_is_an_error() {
    let err = parse(".decl s(x: symbol)\ns(\"oops).").unwrap_err();
    assert!(err.message.contains("unterminated"), "{err}");
}

#[test]
fn invalid_escape_is_an_error() {
    let err = parse(".decl s(x: symbol)\ns(\"bad\\q\").").unwrap_err();
    assert!(err.message.contains("escape"), "{err}");
}

#[test]
fn programmatic_interning() {
    use datalog::ast::build::*;
    let mut p = datalog::Program::new();
    p.declare_typed("person", vec![ColType::Symbol]);
    p.declare_typed("greeted", vec![ColType::Symbol]);
    p.decls.last_mut().unwrap().is_output = true;
    let alice = p.intern("alice");
    p.fact("person", &[alice]);
    p.rule(rule(
        atom("greeted", vec![v("X")]),
        vec![pos("person", vec![v("X")])],
    ));
    let mut engine = Engine::new(&p, StorageKind::SpecBTree, 1).unwrap();
    engine.run().unwrap();
    assert_eq!(
        engine.relation_display("greeted").unwrap(),
        vec![vec!["alice".to_string()]]
    );
}

#[test]
fn mixed_symbol_and_number_columns() {
    let p = parse(
        r#"
        .decl age(who: symbol, years: number)
        .decl adult(who: symbol)
        .output adult
        age("kim", 34). age("sam", 11).
        adult(w) :- age(w, y), y >= 18.
        "#,
    )
    .unwrap();
    let mut engine = Engine::new(&p, StorageKind::SpecBTree, 1).unwrap();
    engine.run().unwrap();
    assert_eq!(
        engine.relation_display("adult").unwrap(),
        vec![vec!["kim".to_string()]]
    );
    let ages = engine.relation_display("age").unwrap();
    assert!(ages.contains(&vec!["kim".to_string(), "34".to_string()]));
}
