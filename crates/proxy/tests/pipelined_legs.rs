//! The proxy's read fan-out over real TCP: every leg is sent before any
//! answer is read, from the thread that took the read. Three backends
//! sit behind `NetPool`s of one connection each, so a leg holds its
//! backend's only connection from send to collect — the tightest case
//! for the strictly ascending order that keeps concurrent scatters from
//! deadlocking.

use orsp_net::{
    ClientConfig, FrameService, NetPool, NetServer, Request, Response, SearchHit, ServerConfig,
};
use orsp_obs::{Registry, TraceContext};
use orsp_proxy::{BackendLink, ProxyConfig, ProxyService};
use orsp_search::SearchQuery;
use orsp_server::SupportParts;
use orsp_types::{Category, EntityId, Rating, Specialty, StarHistogram};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

/// A backend that answers every `SearchParts` with the same three hits
/// after sleeping `delay`.
struct SearchBackend {
    delay: Duration,
    obs: Arc<Registry>,
}

fn hit(entity: u64, score: f64) -> SearchHit {
    let mut explicit = StarHistogram::default();
    explicit.add(Rating::stars(4));
    SearchHit {
        entity: EntityId::new(entity),
        score,
        explicit,
        inferred: StarHistogram::default(),
        histories: 0,
        repeat_fraction: 0.0,
    }
}

impl FrameService for SearchBackend {
    fn handle_traced(&self, request: Request, _ctx: Option<TraceContext>) -> Response {
        std::thread::sleep(self.delay);
        match request {
            Request::SearchParts { .. } => Response::SearchParts {
                hits: vec![hit(1, 4.0), hit(2, 3.0), hit(3, 2.0)],
                support: vec![SupportParts { histories: 6, repeats: 3 }; 3],
            },
            _ => Response::Pong,
        }
    }

    fn obs(&self) -> &Arc<Registry> {
        &self.obs
    }
}

/// Three backends answering after `delay`, and a proxy over them with
/// one pooled connection per backend.
fn cluster(delay: Duration) -> (Vec<NetServer>, Arc<ProxyService>) {
    let servers: Vec<NetServer> = (0..3)
        .map(|_| {
            let backend = Arc::new(SearchBackend { delay, obs: Arc::new(Registry::new()) });
            NetServer::bind("127.0.0.1:0", backend, ServerConfig::default()).expect("bind")
        })
        .collect();
    let links: Vec<Arc<dyn BackendLink>> = servers
        .iter()
        .map(|server| {
            Arc::new(NetPool::new(server.local_addr(), ClientConfig::default(), 1))
                as Arc<dyn BackendLink>
        })
        .collect();
    (servers, Arc::new(ProxyService::new(links, ProxyConfig::default())))
}

fn search() -> Request {
    Request::Search {
        query: SearchQuery { zipcode: 94107, category: Category::Doctor(Specialty::Dentist) },
    }
}

#[test]
fn concurrent_readers_over_one_connection_per_backend_never_deadlock() {
    let (servers, proxy) = cluster(Duration::ZERO);
    let expected = proxy.handle(search());
    assert!(
        matches!(&expected, Response::SearchResults { hits } if hits.len() == 3
            && hits.iter().all(|h| h.histories == 18)),
        "{expected:?}"
    );
    let start = Arc::new(Barrier::new(8));
    let (done, finished) = mpsc::channel();
    let readers: Vec<_> = (0..8)
        .map(|_| {
            let (proxy, start, done) = (Arc::clone(&proxy), Arc::clone(&start), done.clone());
            std::thread::spawn(move || {
                start.wait();
                let answers: Vec<Response> = (0..200).map(|_| proxy.handle(search())).collect();
                let _ = done.send(answers);
            })
        })
        .collect();
    for _ in 0..8 {
        let answers = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("a reader is stuck: scatters deadlocked on pooled connections");
        assert!(answers.iter().all(|a| *a == expected));
    }
    for reader in readers {
        reader.join().expect("reader thread");
    }
    for server in servers {
        assert_eq!(server.shutdown().requests, 1 + 8 * 200);
    }
}

#[test]
fn one_read_waits_for_its_slowest_leg_not_the_sum() {
    // Each backend takes 150 ms to answer. Legs run one after another
    // would take 450 ms; sent together they overlap and the read takes
    // about 150 ms.
    let (_servers, proxy) = cluster(Duration::from_millis(150));
    // Dial every pooled connection first, so the timed read measures
    // the legs and not three connects.
    assert_eq!(proxy.handle(Request::Ping), Response::Pong);
    let started = Instant::now();
    let answer = proxy.handle(search());
    let elapsed = started.elapsed();
    assert!(matches!(&answer, Response::SearchResults { hits } if hits.len() == 3), "{answer:?}");
    assert!(elapsed < Duration::from_millis(300), "legs did not overlap: {elapsed:?}");
}
