//! A blocking client for `evirel-serve`'s protocol, readers for what
//! `STATS` and `METRICS` print, and the catalog the servers under test
//! are seeded with.

use crate::config;
use evirel_query::Catalog;
use evirel_serve::protocol::{read_frame, write_frame, Response};
use evirel_workload::{restaurant_db_a, restaurant_db_b};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The paper's restaurant relations bound as `ra` and `rb`, in a
/// catalog under [`config`].
pub fn seeded() -> Catalog {
    let mut catalog = Catalog::with_config(&config());
    catalog.register("ra", restaurant_db_a().restaurants);
    catalog.register("rb", restaurant_db_b().restaurants);
    catalog
}

/// A connection to `addr` whose reads give up after 30 s, so a server
/// that never replies fails the test instead of hanging it.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// One request frame out, one response frame back, parsed.
pub fn roundtrip(stream: &mut TcpStream, payload: &str) -> Response {
    write_frame(stream, payload).expect("request frame writes");
    let reply = read_frame(stream)
        .expect("response frame reads")
        .expect("server replied");
    Response::parse(&reply).expect("response parses")
}

/// The body of an `OK`; anything else fails the test.
pub fn ok_body(response: Response) -> String {
    match response {
        Response::Ok { body } => body,
        other => panic!("expected OK, got {other:?}"),
    }
}

/// The first whitespace-separated `key=value` in `text`, as a number.
pub fn stat(text: &str, key: &str) -> u64 {
    text.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {text:?}"))
        .parse()
        .unwrap_or_else(|e| panic!("{key} not a number: {e}"))
}

/// The `STATS` line starting with `prefix`.
pub fn line<'a>(body: &'a str, prefix: &str) -> &'a str {
    body.lines()
        .find(|line| line.starts_with(prefix))
        .unwrap_or_else(|| panic!("no line starting with {prefix:?} in:\n{body}"))
}

/// The value of an exact series (name including labels, if any) in a
/// Prometheus text exposition.
pub fn series(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .filter(|line| !line.starts_with('#'))
        .find_map(|line| {
            let (series_name, value) = line.split_once(' ')?;
            (series_name == name).then(|| {
                value
                    .parse()
                    .unwrap_or_else(|e| panic!("series {name} value {value:?}: {e}"))
            })
        })
        .unwrap_or_else(|| panic!("series {name} missing from exposition:\n{exposition}"))
}
