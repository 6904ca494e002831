//! The generator is a function of the seed, and its client puts each
//! request on the wire in one write with `TCP_NODELAY`.

use perfbench::client::Conn;
use perfbench::gen::{self, hot_reads, OpStream, Reads, Rng, Shape};
use std::io::{Read, Write};
use std::net::TcpListener;

/// The request lines of `n` operations of each stream kind, with `add`
/// acks assigned sequential ids.
fn streams(seed: u64, n: usize) -> String {
    let mut out = String::new();
    for (reads, share) in [
        (Reads::Cold, 0.0),
        (hot_reads(seed), 0.1),
        (Reads::Cold, 1.0),
    ] {
        let mut s = OpStream::new(seed, 0, 1, 2, 2_000, reads, share);
        let mut next_cid = 2_000;
        for _ in 0..n {
            let op = s.next_op();
            if let gen::Op::Add(_) = op {
                s.on_add_ack(next_cid);
                next_cid += 1;
            }
            out.push_str(&gen::render(&op));
            out.push('\n');
        }
    }
    out
}

fn csvs(seed: u64) -> String {
    let mut rng = Rng::new(seed, 1);
    let mut out = gen::csv(&gen::anti_correlated(&mut rng, 500));
    for shape in Shape::ALL {
        out.push_str(&gen::csv(&shape.products(seed, 3)));
    }
    out
}

#[test]
fn same_seed_gives_identical_streams_and_csvs() {
    assert_eq!(streams(7, 500), streams(7, 500));
    assert_eq!(csvs(7), csvs(7));
}

#[test]
fn different_seeds_give_different_streams_and_csvs() {
    assert_ne!(streams(7, 500), streams(8, 500));
    assert_ne!(csvs(7), csvs(8));
}

#[test]
fn mixed_stream_has_the_stated_shares() {
    let text = streams(11, 4_000);
    let mixed: Vec<&str> = text.lines().skip(4_000).take(4_000).collect();
    let writes = mixed.iter().filter(|l| !l.contains("\"query\"")).count();
    let removes = mixed.iter().filter(|l| l.contains("\"remove\"")).count();
    assert!((300..500).contains(&writes), "{writes} writes in 4000 ops");
    assert!(
        removes * 3 > writes && removes * 3 < 2 * writes,
        "{removes} of {writes}"
    );
    let tail: Vec<&str> = text.lines().skip(8_000).collect();
    assert!(tail.iter().all(|l| !l.contains("\"query\"")));
}

#[test]
fn client_sends_each_request_in_one_write_with_nodelay() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let line = gen::render(&OpStream::new(3, 0, 0, 1, 10, Reads::Cold, 0.0).next_op());
    let expect = format!("{line}\n");
    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().unwrap();
        let mut seen = Vec::new();
        for _ in 0..2 {
            // One read per request: a request split over two writes on
            // a no-delay socket arrives as two segments, and the first
            // read returns only the first part.
            let mut buf = [0u8; 4096];
            let n = sock.read(&mut buf).unwrap();
            seen.push(String::from_utf8_lossy(&buf[..n]).into_owned());
            sock.write_all(b"{\"ok\":true}\n").unwrap();
        }
        seen
    });
    let mut conn = Conn::connect(&addr).unwrap();
    assert!(conn.nodelay());
    for _ in 0..2 {
        assert_eq!(conn.request(&line).unwrap(), "{\"ok\":true}");
    }
    for read in server.join().unwrap() {
        assert_eq!(read, expect);
    }
}
