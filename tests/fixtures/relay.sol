pragma solidity ^0.6.12;

contract Bank {
    function deposit(uint n) public payable {
    }
}

contract Relay {
    address public x;

    Bank public c;

    uint public g;

    uint public last;

    function f(uint v) public {
        last = v;
    }

    function pay() public payable {
        this.f(msg.value);
        c.deposit.value(msg.value)(g);
        x.call.gas(g).value(msg.value)();
        x.call.value(msg.value).gas(g)();
        x.call.value(msg.value)();
        x.call{value: msg.value}("");
    }
}

contract Bound {
    uint public total;

    modifier atLeast(uint v) {
        require(msg.value >= v);
        _;
    }

    function join(uint v) public payable atLeast(v) {
        total += msg.value;
    }
}

contract Track {
    uint public seen;

    uint public pot;

    modifier track() {
        seen = pot;
        _;
    }

    function join() public payable track {
        uint pot = msg.value;
    }
}

contract Fee {
    uint public pot;

    modifier fee() {
        uint f = msg.value;
        pot = f;
        _;
    }

    function enter() public payable fee {
    }
}
