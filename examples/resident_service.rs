//! Resident service: point queries and live inserts/deletes over a
//! matched corpus.
//!
//! ```text
//! cargo run --example resident_service
//! ```
//!
//! The batch pipeline builds a graph, matches once and exits; this
//! example keeps everything resident in an [`ccer::service::ErService`]:
//! the CSR similarity graph, the similarity function's scoring indexes,
//! and a delta-incremental matcher. New records are scored against the
//! corpus through index-pruned probes and the matching is repaired in
//! place — after every update the service answers exactly what a full
//! rebuild-and-rematch would.

use ccer::core::Side;
use ccer::datasets::{EntityCollection, EntityProfile};
use ccer::matchers::AlgorithmKind;
use ccer::pipeline::SimilarityFunction;
use ccer::service::{ErService, ServiceConfig};
use ccer::textsim::{NGramScheme, VectorMeasure};

fn collection(names: &[&str]) -> EntityCollection {
    EntityCollection {
        profiles: names
            .iter()
            .enumerate()
            .map(|(i, n)| EntityProfile::new(i as u32, vec![("title".into(), (*n).into())]))
            .collect(),
        attribute_names: vec!["title".into()],
    }
}

fn main() {
    // Two clean product catalogs, loaded once.
    let shop_a = collection(&[
        "apple iphone 12 pro 128gb",
        "samsung galaxy s21 ultra",
        "google pixel 5 black",
        "nokia 3310 classic",
    ]);
    let shop_b = collection(&[
        "galaxy s21 ultra by samsung",
        "iphone 12 pro apple 128 gb",
        "pixel 5 google smartphone",
        "sony xperia 10",
    ]);
    let function = SimilarityFunction::SchemaAgnosticVector {
        scheme: NGramScheme::Token(1),
        measure: VectorMeasure::CosineTfIdf,
    };
    let config = ServiceConfig {
        k: 3,
        threshold: 0.2,
        algorithm: AlgorithmKind::Umc,
        ..ServiceConfig::default()
    };

    // 1. Load: top-k graph build (indexed candidate generation), CSR
    //    store, resident scoring indexes, incremental UMC.
    let mut service = ErService::load(&shop_a, &shop_b, &function, config);
    println!(
        "loaded {}x{} records, {} edges",
        service.n_left(),
        service.n_right(),
        service.n_edges()
    );
    for (l, r) in service.matching().iter() {
        println!(
            "  matched: {:40} <-> {}",
            service
                .profile(Side::Left, l)
                .unwrap()
                .value("title")
                .unwrap(),
            service
                .profile(Side::Right, r)
                .unwrap()
                .value("title")
                .unwrap(),
        );
    }

    // 2. A new record arrives in shop A: one index-pruned probe scores
    //    it, the delta lands in the store, the matching repairs itself.
    let new_id = service.next_id(Side::Left);
    let arrival = EntityProfile::new(
        new_id,
        vec![("title".into(), "xperia 10 sony smartphone".into())],
    );
    let delta = service.insert(Side::Left, &arrival).expect("fresh id");
    println!(
        "\ninserted left #{new_id} ({} candidate edges)",
        delta.edges.len()
    );
    println!(
        "  now matched to: {:?}",
        service
            .match_of(Side::Left, new_id)
            .and_then(|r| service.profile(Side::Right, r))
            .and_then(|p| p.value("title").map(str::to_string))
    );

    // 3. A record is withdrawn: its edges disappear and its partner is
    //    re-assigned incrementally (UMC cascade repair).
    service.remove(Side::Right, 1).expect("live record");
    println!("\nremoved right #1 (iphone listing)");
    let partner = service.match_of(Side::Left, 0);
    println!(
        "  left #0 ({}) now matches: {:?}",
        service
            .profile(Side::Left, 0)
            .unwrap()
            .value("title")
            .unwrap(),
        partner
            .and_then(|r| service.profile(Side::Right, r))
            .and_then(|p| p.value("title").map(str::to_string))
    );

    // 4. The incremental state is exactly the batch answer.
    assert_eq!(service.matching(), service.full_rematch());
    println!("\nincremental matching == full re-match: ok");
}
