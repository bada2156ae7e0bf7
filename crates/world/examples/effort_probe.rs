use orsp_types::{Category, EntityId, UserId};
use orsp_world::{ActivityKind, World, WorldConfig};
use std::collections::HashMap;

fn main() {
    let w = World::generate(WorldConfig::city(17)).unwrap();
    let mut pairs: HashMap<(UserId, EntityId), (usize, f64)> = HashMap::new();
    for e in w.events.iter().filter(|e| e.group.is_none()) {
        if let ActivityKind::Visit { travel_distance_m, .. } = e.kind {
            let p = pairs.entry((e.user, e.entity)).or_default();
            p.0 += 1;
            p.1 += travel_distance_m;
        }
    }
    let mut top: HashMap<UserId, (EntityId, usize)> = HashMap::new();
    for (&(u, e), &(n, _)) in &pairs {
        let ent = w.entity(e).unwrap();
        if !matches!(ent.category, Category::Restaurant(_)) {
            continue;
        }
        let cur = top.entry(u).or_insert((e, 0));
        if n > cur.1 {
            *cur = (e, n);
        }
    }
    let mut pts: Vec<(f64, f64)> = top
        .iter()
        .filter(|(_, &(_, n))| n >= 4)
        .map(|(&u, &(e, _))| {
            let user = w.user(u).unwrap();
            let ent = w.entity(e).unwrap();
            let effort = user.home.distance_to(&ent.location) / user.persona.travel_tolerance_m;
            let op = w.opinions.true_rating(user, ent).value();
            (effort, op)
        })
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    let q = pts.len() / 4;
    let near: f64 = pts[..q].iter().map(|p| p.1).sum::<f64>() / q as f64;
    let far: f64 = pts[pts.len() - q..].iter().map(|p| p.1).sum::<f64>() / q as f64;
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let cov: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>().sqrt();
    let sy: f64 = pts.iter().map(|p| (p.1 - my).powi(2)).sum::<f64>().sqrt();
    println!(
        "top-restaurant pairs: {} near_q {:.2} far_q {:.2} pearson {:.3}",
        pts.len(),
        near,
        far,
        cov / (sx * sy)
    );
}
