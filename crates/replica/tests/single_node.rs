//! `orsp-replicad --cluster-size 1` is the single durable node: what a
//! device was acked survives a drain and a restart on the same
//! directory — the record and the spent token both, so the token
//! cannot buy a second upload from the restarted daemon.

mod common;

use common::{fast_client, small_world, spawn_node, wait_ready};
use orsp_client::UploadRequest;
use orsp_core::{service_for_world, PipelineConfig};
use orsp_crypto::TokenWallet;
use orsp_net::{NetClient, RemoteIssuer, TcpTransport};
use orsp_server::RejectReason;
use orsp_types::rng::rng_for;
use orsp_types::{
    DeviceId, Interaction, InteractionKind, RecordId, SimDuration, Timestamp,
};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// Spawn the one node of a one-node cluster on `dir` and wait for it to
/// answer.
fn start(dir: &Path) -> (Child, SocketAddr) {
    let reserved = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = reserved.local_addr().unwrap();
    drop(reserved);
    let child = spawn_node(dir, 0, 1, &addr.to_string(), &[]);
    wait_ready(addr);
    (child, addr)
}

/// Close the node's stdin, wait for its clean exit, return what it printed.
fn drain(mut child: Child) -> String {
    drop(child.stdin.take());
    let output = child.wait_with_output().expect("wait replicad");
    assert!(output.status.success(), "replicad exited {}", output.status);
    String::from_utf8(output.stdout).expect("replicad stdout is utf-8")
}

#[test]
fn acked_upload_and_spent_token_survive_drain_and_restart() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("single-node");
    let _ = std::fs::remove_dir_all(&dir);

    let world = small_world();
    // The child derives its mint from the same world seed.
    let public = service_for_world(&world, &PipelineConfig::default()).mint_public_key();
    let now = Timestamp::EPOCH + SimDuration::hours(13);
    let upload_of = |record: u8, token| UploadRequest {
        record_id: RecordId::from_bytes([record; 32]),
        entity: world.entities[0].id,
        interaction: Interaction::solo(
            InteractionKind::Visit,
            Timestamp::EPOCH + SimDuration::hours(12),
            SimDuration::minutes(35),
            900.0,
        ),
        token,
        release_at: now,
    };

    // Run 1: blind issue, anonymous upload, drain.
    let (node, addr) = start(&dir);
    let transport = TcpTransport::connect(addr, fast_client()).expect("transport");
    let mut wallet = TokenWallet::new(DeviceId::new(1), public);
    wallet
        .request_token(
            &mut rng_for(99, "single-node-device"),
            &mut RemoteIssuer::new(&transport),
            Timestamp::EPOCH,
        )
        .expect("blind token issued over TCP");
    let token = wallet.take_token().expect("token in wallet");
    let mut client = NetClient::connect(addr, fast_client()).expect("connect");
    assert_eq!(client.upload(upload_of(42, token.clone()), now).expect("upload RPC"), Ok(()));
    drop((client, transport));
    let printed = drain(node);
    assert!(
        printed.contains("range 0 checkpoint generation")
            && printed.contains("1 histories, 1 tokens"),
        "no drain checkpoint of the one record and token:\n{printed}"
    );

    // Run 2, same directory: both recovered, and the token is spent.
    let (node, addr) = start(&dir);
    let mut client = NetClient::connect(addr, fast_client()).expect("reconnect");
    assert_eq!(
        client.upload(upload_of(43, token), now).expect("upload RPC"),
        Err(RejectReason::DoubleSpend),
        "the restarted node sold the same token twice"
    );
    drop(client);
    let printed = drain(node);
    assert!(
        printed.contains("1 records recovered, 1 spent tokens"),
        "restart did not recover the record and the token:\n{printed}"
    );
}

#[test]
fn a_misspelt_flag_exits_2_before_binding() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("single-node-typo");
    let output = Command::new(env!("CARGO_BIN_EXE_orsp-replicad"))
        .arg("--data-dir")
        .arg(&dir)
        .args(["--replication-factr", "2"])
        .stdin(Stdio::null())
        .output()
        .expect("run orsp-replicad");
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.starts_with("unknown flag --replication-factr\nusage: orsp-replicad "));
    assert!(output.stdout.is_empty(), "served anyway: {:?}", output.stdout);
    assert!(!dir.exists(), "opened a data directory before refusing the command line");
}
