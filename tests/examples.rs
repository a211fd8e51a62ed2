//! The three kept examples run in tier-1: each `main()` asserts what it
//! demonstrates, so an example that stops working fails here instead of
//! printing something wrong to nobody.

#[path = "../examples/accessibility.rs"]
mod accessibility;
#[path = "../examples/lazy_file_server.rs"]
mod lazy_file_server;
#[path = "../examples/quickstart.rs"]
mod quickstart;

#[test]
fn quickstart_shows_the_headline() {
    quickstart::main();
}

#[test]
fn lazy_file_server_ships_less_than_eager() {
    lazy_file_server::main();
}

#[test]
fn accessibility_refuses_the_owed_peek() {
    accessibility::main();
}
