//! Bringing your own data: continuous values, mixed preference directions,
//! and the CSV dialect.
//!
//! A hotel-booking scenario: price (lower is better), rating, and distance
//! to the beach (lower is better) are continuous; some cells are unknown.
//! The pipeline is: discretize → reflect minimized attributes → query.
//!
//! ```text
//! cargo run --example custom_dataset
//! ```

use bayescrowd::framework::machine_only_answers;
use bayescrowd::BayesCrowdConfig;
use bc_bayes::discretize::{discretize_rows, Binning};
use bc_data::csv::to_csv;
use bc_data::preference::{normalize_directions, Direction};

fn main() {
    // Raw continuous data: price ($), rating (stars), beach distance (km).
    // `None` = the aggregator has no value yet.
    let raw: Vec<Vec<Option<f64>>> = vec![
        vec![Some(120.0), Some(4.5), Some(0.3)],
        vec![Some(85.0), Some(4.1), None],
        vec![Some(300.0), Some(4.9), Some(0.1)],
        vec![Some(95.0), None, Some(2.5)],
        vec![Some(150.0), Some(3.2), Some(0.4)],
        vec![None, Some(4.0), Some(1.0)],
        vec![Some(70.0), Some(3.9), Some(3.0)],
        vec![Some(210.0), Some(4.8), None],
    ];
    let names = [
        "Seaview",
        "Budget Inn",
        "Grand Palace",
        "City Stop",
        "Harbor",
        "Mystery Deal",
        "Backpacker",
        "Royal Sands",
    ];

    // 1. Discretize each column into 8 ranges (equi-depth handles the
    //    skewed price distribution gracefully).
    let discrete =
        discretize_rows("hotels", &raw, 8, Binning::EquiDepth).expect("well-formed raw table");

    // 2. Price and distance are minimized; reflect them so the standard
    //    larger-is-better skyline applies.
    let directions = [
        Direction::Minimize,
        Direction::Maximize,
        Direction::Minimize,
    ];
    let normalized =
        normalize_directions(&discrete, &directions).expect("one direction per attribute");

    println!("normalized dataset (CSV dialect):\n{}", to_csv(&normalized));

    // 3. Machine-only skyline answer from the learned distributions (with a
    //    catalogue this small a crowd round would finish it; see the
    //    `quickstart` example for the crowd loop).
    let config = BayesCrowdConfig {
        alpha: 1.0,
        ..Default::default()
    };
    let (answers, ctable) =
        machine_only_answers(&normalized, &config).expect("the machine-only pass solves");
    println!("recommended (skyline) hotels:");
    for o in &answers {
        println!("  {} — {}", o, names[o.index()]);
    }
    println!(
        "{} certain, {} awaiting data or crowdsourcing",
        ctable.certain_answers().len(),
        ctable.open_objects().len()
    );
    for o in ctable.open_objects() {
        println!(
            "  open: {} — condition {}",
            names[o.index()],
            ctable.condition(o)
        );
    }
}
