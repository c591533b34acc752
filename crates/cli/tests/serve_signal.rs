//! `leapme serve` stops on SIGINT/SIGTERM: the command waits for the
//! process-wide interrupted flag (which the binary's signal handler
//! sets), then drains the server and reports. The flag is shared by the
//! whole process, so these tests live in a test binary of their own,
//! where no other command's interrupt test can race them, and run one
//! at a time.

use leapme_cli::{interrupted_flag, run};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn args(parts: &[&str]) -> Vec<String> {
    parts.iter().map(|s| s.to_string()).collect()
}

/// Artifacts of a tiny trained model, made once through the CLI.
struct Fixture {
    dir: PathBuf,
    dataset: String,
    embeddings: String,
    model: String,
    cache: String,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dir = std::env::temp_dir().join("leapme_cli_serve_signal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let f = Fixture {
            dataset: path("tvs.json"),
            embeddings: path("vectors.txt"),
            model: path("model.lmp"),
            cache: path("features.lfc"),
            dir: dir.clone(),
        };
        run(&args(&[
            "generate", "--domain", "tvs", "--seed", "3", "--out", &f.dataset,
        ]))
        .unwrap();
        run(&args(&[
            "embed",
            "--domains",
            "tvs",
            "--dim",
            "8",
            "--epochs",
            "2",
            "--out",
            &f.embeddings,
        ]))
        .unwrap();
        run(&args(&[
            "train",
            "--dataset",
            &f.dataset,
            "--embeddings",
            &f.embeddings,
            "--save",
            &f.model,
            "--feature-cache",
            &f.cache,
        ]))
        .unwrap();
        f
    })
}

/// A loopback address no one listens on right now.
fn free_addr() -> SocketAddr {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
}

fn ready(addr: SocketAddr) -> bool {
    let Ok(mut stream) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reply = String::new();
    stream
        .write_all(b"GET /readyz HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n")
        .and_then(|()| stream.read_to_string(&mut reply))
        .is_ok_and(|_| reply.starts_with("HTTP/1.1 200"))
}

/// Run `leapme serve <serve_args>` on a thread until `/readyz` answers
/// 200, then set the interrupted flag as SIGTERM would and return what
/// the command returned; more than 5 s to drain fails the test.
fn serve_until_interrupted(serve_args: &[&str]) -> String {
    let addr = free_addr();
    let mut argv = args(&["serve", "--workers", "1", "--addr", &addr.to_string()]);
    argv.extend(args(serve_args));
    let (done, finished) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let _ = done.send(run(&argv));
    });

    let started = Instant::now();
    while !ready(addr) {
        if let Ok(early) = finished.try_recv() {
            panic!("leapme serve exited before it was ready: {early:?}");
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "leapme serve never answered /readyz"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    interrupted_flag().store(true, Ordering::SeqCst);
    let result = finished.recv_timeout(Duration::from_secs(5));
    interrupted_flag().store(false, Ordering::SeqCst);
    let result = result.expect("leapme serve did not return within 5 s of the interrupt");
    server.join().unwrap();
    result.expect("leapme serve failed")
}

#[test]
fn single_model_serve_drains_cleanly_on_interrupt() {
    let _g = serial();
    let f = fixture();
    let out = serve_until_interrupted(&[
        "--model",
        &f.model,
        "--dataset",
        &f.dataset,
        "--embeddings",
        &f.embeddings,
        "--feature-cache",
        &f.cache,
    ]);
    assert!(out.contains("drained cleanly"), "{out}");
}

#[test]
fn registry_serve_drains_cleanly_on_interrupt() {
    let _g = serial();
    let f = fixture();
    let root = f.dir.join("registry");
    let domain = root.join("tvs");
    std::fs::create_dir_all(&domain).unwrap();
    std::fs::copy(&f.model, domain.join("model.lmp")).unwrap();
    std::fs::copy(&f.dataset, domain.join("dataset.json")).unwrap();
    std::fs::copy(&f.cache, domain.join("features.lfc")).unwrap();

    let out = serve_until_interrupted(&["--models", root.to_str().unwrap()]);
    assert!(out.contains("drained cleanly"), "{out}");
}
