//! VASS language coverage: end-to-end exercises of subset constructs
//! the five benchmarks don't touch — packages, vectors, nested mode
//! selection, sequential case, for-loops over vectors, terminal
//! facets, and user functions — plus diagnostics quality checks.

use vase::flow::{compile_source, synthesize_source, FlowError, FlowOptions};
use vase::library::ComponentKind;
use vase::vhif::BlockKind;

fn synth(source: &str) -> vase::flow::SynthesizedDesign {
    synthesize_source(source, &FlowOptions::default())
        .expect("synthesizes")
        .into_iter()
        .next()
        .expect("one architecture")
}

#[test]
fn package_constants_and_functions_cross_design_units() {
    let d = synth(
        "package lib is
           constant gain : real := 5.0;
           function db_double(x : real) return real is
           begin
             return x * 2.0;
           end function;
         end package;
         entity uses_pkg is
           port (quantity a : in real is voltage;
                 quantity y : out real is voltage);
         end entity;
         architecture arch of uses_pkg is
         begin
           y == db_double(gain * a);
         end architecture;",
    );
    // db_double(gain·a) inlines to 2·5·a → folded into one amplifier.
    assert_eq!(d.synthesis.netlist.opamp_count(), 1);
    match &d.synthesis.netlist.components[0].kind {
        ComponentKind::NonInvertingAmp { gain } => assert_eq!(*gain, 10.0),
        other => panic!("expected a gain-10 amp, got {other:?}"),
    }
}

#[test]
fn real_vector_indexed_in_unrolled_loop() {
    let d = synth(
        "entity vec is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage);
         end entity;
         architecture a of vec is
           constant taps : integer := 3;
         begin
           procedural is
             variable w : real_vector(0 to 2);
             variable acc : real;
           begin
             for i in 0 to taps - 1 loop
               w(i) := x * 0.25;
             end loop;
             acc := 0.0;
             for i in 0 to taps - 1 loop
               acc := acc + w(i);
             end loop;
             y := acc;
           end procedural;
         end architecture;",
    );
    d.synthesis.netlist.validate().expect("valid");
    assert!(d.vhif.stats().blocks >= 2);
}

#[test]
fn nested_simultaneous_if_selects_among_four_modes() {
    let d = synth(
        "entity modes is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage;
                 signal s1 : in bit;
                 signal s2 : in bit);
         end entity;
         architecture a of modes is
         begin
           if (s1 = '1') use
             if (s2 = '1') use
               y == 4.0 * x;
             else
               y == 3.0 * x;
             end use;
           else
             if (s2 = '1') use
               y == 2.0 * x;
             else
               y == 1.0 * x;
             end use;
           end use;
         end architecture;",
    );
    // Three 2-way muxes select among the four gain paths.
    let muxes = d.vhif.graphs[0]
        .iter()
        .filter(|(_, b)| matches!(b.kind, BlockKind::Mux { .. }))
        .count();
    assert_eq!(muxes, 3, "{}", d.vhif.graphs[0]);
    d.synthesis.netlist.validate().expect("valid");
}

#[test]
fn simultaneous_case_over_bit_signal() {
    let d = synth(
        "entity sel is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage;
                 signal mode : in bit);
         end entity;
         architecture a of sel is
         begin
           case mode use
             when '1' => y == 0.5 * x;
             when others => y == 2.0 * x;
           end case;
         end architecture;",
    );
    assert!(d.vhif.graphs[0]
        .iter()
        .any(|(_, b)| matches!(b.kind, BlockKind::Mux { arity: 2 })));
}

#[test]
fn sequential_case_in_procedural() {
    let d = synth(
        "entity seqcase is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage;
                 signal mode : in bit);
         end entity;
         architecture a of seqcase is
         begin
           procedural is
             variable v : real;
           begin
             case mode is
               when '0' => v := x;
               when others => v := 0.0 - x;
             end case;
             y := v;
           end procedural;
         end architecture;",
    );
    d.synthesis.netlist.validate().expect("valid");
}

#[test]
fn terminal_across_facet_flows_through() {
    let d = synth(
        "entity term is
           port (terminal t1 : electrical is impedance 50 ohm;
                 quantity y : out real is voltage);
         end entity;
         architecture a of term is
         begin
           y == 3.0 * t1'across;
         end architecture;",
    );
    // The facet becomes an external input named after it.
    let g = &d.vhif.graphs[0];
    assert!(
        g.iter().any(|(_, b)| matches!(&b.kind, BlockKind::Input { name } if name.contains("across"))),
        "{g}"
    );
    assert_eq!(d.synthesis.netlist.opamp_count(), 1);
}

#[test]
fn abs_maps_to_precision_rectifier() {
    let d = synth(
        "entity rect is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage);
         end entity;
         architecture a of rect is
         begin
           y == abs x;
         end architecture;",
    );
    assert!(d
        .synthesis
        .netlist
        .components
        .iter()
        .any(|c| matches!(c.kind, ComponentKind::PrecisionRectifier)));
}

#[test]
fn division_of_quantities_maps_to_divider() {
    let d = synth(
        "entity ratio is
           port (quantity a : in real is voltage range 0.1 to 1.0;
                 quantity b : in real is voltage range 0.1 to 1.0;
                 quantity y : out real is voltage);
         end entity;
         architecture arch of ratio is
         begin
           y == a / b;
         end architecture;",
    );
    assert!(d
        .synthesis
        .netlist
        .components
        .iter()
        .any(|c| matches!(c.kind, ComponentKind::Divider)));
}

#[test]
fn differentiator_from_dot_on_rhs() {
    let d = synth(
        "entity deriv is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage);
         end entity;
         architecture a of deriv is
         begin
           y == 0.001 * x'dot;
         end architecture;",
    );
    assert!(d
        .synthesis
        .netlist
        .components
        .iter()
        .any(|c| matches!(c.kind, ComponentKind::Differentiator { .. })));
}

#[test]
fn power_operator_synthesizes_multiplier_chain() {
    let d = synth(
        "entity square is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage);
         end entity;
         architecture a of square is
         begin
           y == x ** 2;
         end architecture;",
    );
    assert!(d
        .synthesis
        .netlist
        .components
        .iter()
        .any(|c| matches!(c.kind, ComponentKind::Multiplier)));
}

// ------------------------------------------------------- diagnostics

#[test]
fn unsolvable_dae_reports_the_stuck_variable() {
    let err = synthesize_source(
        "entity bad is
           port (quantity y : out real is voltage);
         end entity;
         architecture a of bad is
           quantity w : real;
         begin
           y == w * w;
           w == y + 1.0;
         end architecture;",
        &FlowOptions::default(),
    )
    .unwrap_err();
    let message = err.to_string();
    assert!(matches!(err, FlowError::Compile(_)));
    assert!(message.contains("signal-flow"), "{message}");
}

#[test]
fn sema_errors_carry_source_locations() {
    let err = synthesize_source(
        "entity loc is
           port (quantity y : out real is voltage);
         end entity;
         architecture a of loc is
         begin
           y == 2.0 * ghost;
         end architecture;",
        &FlowOptions::default(),
    )
    .unwrap_err();
    let message = err.to_string();
    assert!(message.contains("ghost"), "{message}");
    assert!(message.contains("6:"), "expected a line number in: {message}");
}

#[test]
fn parse_errors_point_at_the_offending_token() {
    let err = compile_source("entity broken is port (quantity : in real); end entity;")
        .unwrap_err();
    let message = err.to_string();
    assert!(message.contains("expected identifier"), "{message}");
}

#[test]
fn closing_names_must_repeat_the_unit_name() {
    let v002 = |source: &str| -> Vec<String> {
        vase::lint_source(source)
            .into_iter()
            .filter(|d| d.code.to_string() == "V002")
            .map(|d| format!("{} {}", d.span, d.message))
            .collect()
    };
    let unit = |entity_end: &str, arch_end: &str| {
        format!(
            "entity amp is
               port (quantity x : in real is voltage;
                     quantity y : out real is voltage);
             end entity {entity_end};
             architecture behav of amp is
             begin
               y == 2.0 * x;
             end architecture {arch_end};"
        )
    };
    assert_eq!(v002(&unit("amp", "behav")), Vec::<String>::new());
    assert_eq!(v002(&unit("", "")), Vec::<String>::new());
    assert_eq!(
        v002(&unit("bogus", "nothere")),
        [
            "4:25 closing name `bogus` does not match the entity name `amp` declared at 1:8",
            "8:31 closing name `nothere` does not match the architecture name `behav` \
             declared at 5:27",
        ]
    );
    // A process or procedural closes with its label, and only a
    // labelled one may repeat a name.
    let errors = v002(
        "entity p is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage);
         end entity;
         architecture a of p is
           signal s : bit;
         begin
           step: procedural is begin y := x; end procedural stop;
           process (s) is begin s <= '1'; end process watch;
         end architecture;",
    );
    assert_eq!(
        errors,
        [
            "8:61 closing name `stop` does not match the procedural name `step` declared at 8:12",
            "9:55 closing name `watch` given for a process without a label",
        ]
    );
    // A strict parse stops at the mismatch.
    let err = compile_source(&unit("amp", "nothere")).unwrap_err();
    assert!(err.to_string().contains("`nothere` does not match"), "{err}");
}

#[test]
fn wait_statement_rejected_with_explanation() {
    let err = synthesize_source(
        "entity w is end entity;
         architecture a of w is
           signal s : bit;
         begin
           process (s) is begin wait; end process;
         end architecture;",
        &FlowOptions::default(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("wait"), "{err}");
    assert!(err.to_string().contains("sensitivity"), "{err}");
}

#[test]
fn multiple_architectures_in_one_file() {
    let designs = synthesize_source(
        "entity first is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage);
         end entity;
         architecture a of first is begin y == 2.0 * x; end architecture;
         entity second is
           port (quantity u : in real is voltage;
                 quantity v : out real is voltage);
         end entity;
         architecture b of second is begin v == u - 0.5 * u; end architecture;",
        &FlowOptions::default(),
    )
    .expect("flow");
    assert_eq!(designs.len(), 2);
    assert_eq!(designs[0].entity, "first");
    assert_eq!(designs[1].entity, "second");
    for d in &designs {
        d.synthesis.netlist.validate().expect("valid");
    }
}

#[test]
fn annotation_statement_attaches_to_local_quantity() {
    // `quantity <name> is <annots>;` in the statement part merges
    // annotations into an architecture-local quantity — here driving a
    // wider derived bandwidth than the ports alone imply.
    let designs = synthesize_source(
        "entity ann is
           port (quantity x : in real is voltage;
                 quantity y : out real is voltage);
         end entity;
         architecture a of ann is
           quantity mid : real;
         begin
           quantity mid is frequency 0.0 to 50.0 khz range -2.0 to 2.0;
           mid == 5.0 * x;
           y == mid + x;
         end architecture;",
        &FlowOptions::default(),
    )
    .expect("flow");
    // The derived constraints picked up the 50 kHz band: the amplifiers
    // were sized for it (UGF well above the audio default).
    let est = &designs[0].synthesis.estimate;
    assert!(
        est.components.iter().any(|c| c.ugf_hz >= 1e6),
        "expected wide-band sizing, got {est:?}"
    );
}

#[test]
fn while_loop_flows_to_netlist_with_sample_holds() {
    let d = synth(
        "entity halver is
           port (quantity x : in real is voltage range 0.0 to 2.0;
                 quantity y : out real is voltage);
         end entity;
         architecture a of halver is
         begin
           procedural is
             variable acc : real;
           begin
             acc := x;
             while acc > 0.5 loop
               acc := acc / 2.0;
             end loop;
             y := acc;
           end procedural;
         end architecture;",
    );
    let summary = d.synthesis.netlist.report_summary();
    let count = |cat: &str| {
        summary.iter().find(|(c, _)| c == cat).map(|(_, n)| *n).unwrap_or(0)
    };
    // Fig. 4's inventory survives mapping: 2 S/H, a switch, the two
    // conditionals (zero-cross + Schmitt), and the routing muxes.
    assert_eq!(count("S/H"), 2, "{summary:?}");
    assert_eq!(count("Schmitt trigger"), 1, "{summary:?}");
    assert_eq!(count("zero-cross det."), 1, "{summary:?}");
    assert!(count("MUX") >= 2, "{summary:?}");
    assert_eq!(count("switch"), 1, "{summary:?}");
}
